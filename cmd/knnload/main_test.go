package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"knnpc/internal/netstore"
	"knnpc/internal/profile"
	"knnpc/internal/serve"
)

// TestTargetListParsing: the repeatable -target flag accepts label=url
// specs and rejects malformed or duplicate ones.
func TestTargetListParsing(t *testing.T) {
	var tl targetList
	if err := tl.Set("replicas=http://127.0.0.1:7781"); err != nil {
		t.Fatal(err)
	}
	if err := tl.Set("direct=net:127.0.0.1:7701,127.0.0.1:7702"); err != nil {
		t.Fatal(err)
	}
	if len(tl) != 2 || tl[1].url != "net:127.0.0.1:7701,127.0.0.1:7702" {
		t.Fatalf("parsed %+v", tl)
	}
	for _, bad := range []string{"nourl", "=http://x", "label=", "replicas=http://again"} {
		if err := tl.Set(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestRunValidation: missing targets and bad workload flags fail fast.
func TestRunValidation(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), &out, nil); err == nil {
		t.Error("no -target accepted")
	}
	err := run(context.Background(), &out, []string{"-target", "a=http://127.0.0.1:1", "-zipf", "0.5"})
	if err == nil || !strings.Contains(err.Error(), "skew") {
		t.Errorf("bad zipf: %v", err)
	}
}

// TestRunAgainstServe drives the full CLI path — flag parsing, HTTP
// and direct targets over the same plan, table + comparison output —
// against an in-process serving stack.
func TestRunAgainstServe(t *testing.T) {
	const partitions = 4
	cluster, err := netstore.StartCluster(2, partitions, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	primary, err := netstore.Dial(cluster.Addrs(), partitions)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	vec, err := profile.NewVector([]profile.Entry{{Item: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]netstore.ViewEntry, partitions)
	for u := 0; u < 32; u++ {
		members[u%partitions] = append(members[u%partitions], netstore.ViewEntry{
			User: uint32(u), Neighbors: []uint32{uint32((u + 1) % 32)},
			Profile: vec.AppendBinary(nil),
		})
	}
	for p := 0; p < partitions; p++ {
		if err := primary.PutBase(uint32(p), []byte("s")); err != nil {
			t.Fatal(err)
		}
		if err := primary.PutView(uint32(p), netstore.EncodeView(members[p])); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := serve.New(serve.Config{Primaries: cluster.Addrs(), Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Mux())
	defer hs.Close()

	var out strings.Builder
	err = run(context.Background(), &out, []string{
		"-target", "http=" + hs.URL,
		"-target", "direct=net:" + strings.Join(cluster.Addrs(), ","),
		"-partitions", "4",
		"-users", "32", "-items", "100", "-ops", "200",
		"-rate", "4000", "-zipf", "1.2", "-writefrac", "0.1",
		"-window", "50ms", "-conc", "4", "-seed", "5",
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		// Both targets replayed the same plan in full.
		"target http: 200 ops", "target direct: 200 ops",
		"comparison (per op type, across targets):",
		"p99ms",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// Updates from both runs are queued on the primaries.
	drained, err := primary.DrainUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) == 0 {
		t.Error("no updates drained after write-mixed runs")
	}
}
