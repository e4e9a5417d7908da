package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"knnpc/internal/core"
)

func smallConfig() config {
	return config{
		opts:  core.Options{K: 4, NumPartitions: 4, Workers: 2, Seed: 1},
		users: 150, items: 500, iters: 2,
		heuristic: "Low-High", partitioner: "greedy", sim: "cosine",
	}
}

func TestRunSmokes(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, smallConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phase1", "phase4", "modeled disk time on hdd", "state reads"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunDefaultHeuristic: an empty -heuristic leaves the choice to the
// engine, whose default plans for the run's -slots and -execworkers,
// and the iteration rows split loads into reads and attaches, next to
// the state writes and collect reads.
func TestRunDefaultHeuristic(t *testing.T) {
	cfg := smallConfig()
	cfg.heuristic = ""
	cfg.opts.Slots, cfg.opts.ExecWorkers = 3, 2
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"heuristic=Max-Reuse", "reads  attached  writes  collected  shards"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunWithRecall(t *testing.T) {
	cfg := smallConfig()
	cfg.recall = true
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recall vs exact:") {
		t.Error("recall flag should print a recall line")
	}
}

func TestRunOnDisk(t *testing.T) {
	cfg := smallConfig()
	cfg.opts.OnDisk = true
	cfg.opts.ScratchDir = t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MiB read") {
		t.Error("on-disk run should report bytes read")
	}
}

func TestRunExecWorkers(t *testing.T) {
	cfg := smallConfig()
	cfg.opts.ExecWorkers = 3
	cfg.opts.OnDisk = true
	cfg.opts.ScratchDir = t.TempDir()
	cfg.opts.PrefetchDepth = 2
	cfg.opts.AsyncWriteback = true
	cfg.opts.ShardPrefetch = 2
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "execworkers=3") {
		t.Error("header should echo the phase-4 worker count")
	}
}

func TestRunBuildWorkers(t *testing.T) {
	cfg := smallConfig()
	cfg.opts.BuildWorkers = 4
	cfg.opts.OnDisk = true
	cfg.opts.ScratchDir = t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "buildworkers=4") {
		t.Error("header should echo the build worker count")
	}
}

func TestRunRejectsBadNames(t *testing.T) {
	for _, mutate := range []func(*config){
		func(c *config) { c.heuristic = "nope" },
		func(c *config) { c.partitioner = "nope" },
		func(c *config) { c.sim = "nope" },
	} {
		cfg := smallConfig()
		mutate(&cfg)
		var buf bytes.Buffer
		if err := run(&buf, cfg); err == nil {
			t.Error("bad name should fail")
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg := parseFlags([]string{"-users", "42", "-k", "3", "-heuristic", "Seq.", "-ondisk=false"})
	if cfg.users != 42 || cfg.opts.K != 3 || cfg.heuristic != "Seq." || cfg.opts.OnDisk {
		t.Errorf("parseFlags wrong: %+v", cfg)
	}
}

// TestRunNetstoreLoopbackMatchesInProcess is the e2e contract knnrun's
// -dumpgraph exists for: the in-process run and the -netstore shards=N
// run emit byte-identical graph dumps.
func TestRunNetstoreLoopbackMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	ref := smallConfig()
	ref.dumpGraph = dir + "/inproc.graph"
	var buf bytes.Buffer
	if err := run(&buf, ref); err != nil {
		t.Fatal(err)
	}

	net := smallConfig()
	net.netstore = "shards=2"
	net.opts.ExecWorkers = 2
	net.dumpGraph = dir + "/netstore.graph"
	buf.Reset()
	if err := run(&buf, net); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "netstore=loopback/2-shards") {
		t.Errorf("header should echo the netstore mode:\n%s", buf.String())
	}

	a, err := os.ReadFile(ref.dumpGraph)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(net.dumpGraph)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("graph dumps differ (in-process %d bytes, netstore %d bytes)", len(a), len(b))
	}
}

func TestParseNetStore(t *testing.T) {
	if s, a, err := parseNetStore(""); s != 0 || a != nil || err != nil {
		t.Errorf("empty: %d %v %v", s, a, err)
	}
	if s, a, err := parseNetStore("shards=4"); s != 4 || a != nil || err != nil {
		t.Errorf("shards=4: %d %v %v", s, a, err)
	}
	if s, a, err := parseNetStore("h1:1, h2:2"); s != 0 || len(a) != 2 || a[1] != "h2:2" || err != nil {
		t.Errorf("addr list: %d %v %v", s, a, err)
	}
	for _, bad := range []string{"shards=0", "shards=-1", "shards=x", "a,,b"} {
		if _, _, err := parseNetStore(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
