package main

import (
	"bufio"
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"knnpc/internal/netstore"
)

// TestRunServesUntilStopped: run binds every shard, announces ranges
// and readiness, answers protocol requests, and shuts down when told.
func TestRunServesUntilStopped(t *testing.T) {
	var out safeBuffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run(&out, []string{"-listen", "127.0.0.1:0,127.0.0.1:0", "-partitions", "8"}, stop)
	}()

	// Wait for readiness and scrape the bound addresses.
	var addrs []string
	deadline := time.After(5 * time.Second)
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	for len(addrs) < 2 {
		select {
		case <-deadline:
			t.Fatalf("server never became ready; output:\n%s", out.String())
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		default:
			time.Sleep(5 * time.Millisecond)
		}
		addrs = addrs[:0]
		sc := bufio.NewScanner(strings.NewReader(out.String()))
		ready := false
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrs = append(addrs, m[1])
			}
			if strings.Contains(sc.Text(), "ready") {
				ready = true
			}
		}
		if !ready {
			addrs = addrs[:0]
		}
	}
	if !strings.Contains(out.String(), "shard 0/2 partitions [0,4)") ||
		!strings.Contains(out.String(), "shard 1/2 partitions [4,8)") {
		t.Fatalf("range announcements wrong:\n%s", out.String())
	}

	client, err := netstore.Dial(addrs, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.PutBase(5, []byte("via-binary")); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(5)
	if err != nil || string(got) != "via-binary" {
		t.Fatalf("round trip through the binary's shards: %q, %v", got, err)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestRunRejectsBadFlags: unknown models and unbindable addresses fail
// with real errors instead of serving a half-up cluster.
func TestRunRejectsBadFlags(t *testing.T) {
	var out safeBuffer
	stop := make(chan struct{})
	close(stop)
	if err := run(&out, []string{"-emulate", "floppy"}, stop); err == nil {
		t.Error("unknown disk model accepted")
	}
	if err := run(&out, []string{"-listen", "256.256.256.256:1"}, stop); err == nil {
		t.Error("unbindable address accepted")
	}
	if err := run(&out, []string{"-listen", "127.0.0.1:0,127.0.0.1:0,127.0.0.1:0", "-partitions", "2"}, stop); err == nil {
		t.Error("more shards than partitions accepted")
	}
}

// TestRunReplicaMode: -replicaof turns the process into read replicas
// that serve published views and refuse every write verb.
func TestRunReplicaMode(t *testing.T) {
	// Primary cluster, in-process.
	cluster, err := netstore.StartCluster(2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	primary, err := netstore.Dial(cluster.Addrs(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.PutBase(3, []byte("base")); err != nil {
		t.Fatal(err)
	}
	view := netstore.EncodeView([]netstore.ViewEntry{
		{User: 42, Neighbors: []uint32{1, 2, 3}, Profile: []byte("p42")},
	})
	if err := primary.PutView(3, view); err != nil {
		t.Fatal(err)
	}

	// Replica tier via the binary's run().
	var out safeBuffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run(&out, []string{
			"-listen", "127.0.0.1:0,127.0.0.1:0",
			"-replicaof", strings.Join(cluster.Addrs(), ","),
			"-partitions", "8",
		}, stop)
	}()
	var addrs []string
	deadline := time.After(5 * time.Second)
	addrRe := regexp.MustCompile(`replica \d+/\d+ partitions \[\d+,\d+\) listening on (\S+)`)
	for len(addrs) < 2 {
		select {
		case <-deadline:
			t.Fatalf("replicas never became ready; output:\n%s", out.String())
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		default:
			time.Sleep(5 * time.Millisecond)
		}
		if !strings.Contains(out.String(), "ready") {
			continue
		}
		addrs = addrs[:0]
		for _, m := range addrRe.FindAllStringSubmatch(out.String(), -1) {
			addrs = append(addrs, m[1])
		}
	}

	reader, err := netstore.Dial(addrs, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	epoch, ids, err := reader.Neighbors(42)
	if err != nil {
		t.Fatalf("replica lookup: %v", err)
	}
	if epoch == 0 || len(ids) != 3 || ids[0] != 1 {
		t.Fatalf("replica answered epoch=%d ids=%v", epoch, ids)
	}
	// Write verbs must bounce without corrupting the primary.
	if err := reader.PutBase(3, []byte("sneaky")); err == nil {
		t.Fatal("replica accepted a base PUT")
	}
	if got, err := primary.Get(3); err != nil || string(got) != "base" {
		t.Fatalf("primary state after refused write: %q, %v", got, err)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestRunReplicaFlagMismatch: replica count must match primary count —
// -listen[i] shadows -replicaof[i], so a length mismatch is a config
// error, not something to guess around.
func TestRunReplicaFlagMismatch(t *testing.T) {
	var out safeBuffer
	stop := make(chan struct{})
	close(stop)
	err := run(&out, []string{
		"-listen", "127.0.0.1:0",
		"-replicaof", "127.0.0.1:1,127.0.0.1:2",
		"-partitions", "4",
	}, stop)
	if err == nil {
		t.Fatal("mismatched -listen/-replicaof lengths accepted")
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer: run writes to it
// concurrently with the polling reader.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunRejectsEmptyListenEntry: -listen and -replicaof read their
// lists with netstore.ParseAddrs, whose test holds the list cases, so
// a doubled comma fails instead of shifting every later shard's range.
func TestRunRejectsEmptyListenEntry(t *testing.T) {
	var out safeBuffer
	stop := make(chan struct{})
	close(stop)
	for _, args := range [][]string{
		{"-listen", "127.0.0.1:0,,127.0.0.1:0"},
		{"-listen", "127.0.0.1:0,127.0.0.1:0", "-replicaof", "127.0.0.1:1,,127.0.0.1:2"},
	} {
		if err := run(&out, args, stop); err == nil || !strings.Contains(err.Error(), "empty address") {
			t.Errorf("%q: err = %v, want an empty-address error", args, err)
		}
	}
}
