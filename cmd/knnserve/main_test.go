package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// Handler-level coverage (endpoints, stats, validation) lives with the
// extracted handler in internal/serve; this file only proves the
// binary shell — flags, listener, ready lines, shutdown — end to end.

// TestRunServesHTTP drives the binary's run() end to end: bind an
// ephemeral port, answer over real HTTP with the shared api shapes,
// shut down on stop.
func TestRunServesHTTP(t *testing.T) {
	cluster, err := netstore.StartCluster(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	primary, err := netstore.Dial(cluster.Addrs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.PutBase(0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := primary.PutView(0, netstore.EncodeView([]netstore.ViewEntry{
		{User: 1, Neighbors: []uint32{2}, Profile: profile.Vector{}.AppendBinary(nil)},
	})); err != nil {
		t.Fatal(err)
	}

	var out safeBuffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run(&out, []string{
			"-listen", "127.0.0.1:0",
			"-store", strings.Join(cluster.Addrs(), ","),
			"-partitions", "2",
		}, stop)
	}()
	var addr string
	deadline := time.After(5 * time.Second)
	re := regexp.MustCompile(`listening on (\S+)`)
	for addr == "" {
		select {
		case <-deadline:
			t.Fatalf("never ready:\n%s", out.String())
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		default:
			time.Sleep(5 * time.Millisecond)
		}
		if !strings.Contains(out.String(), "ready") {
			continue
		}
		sc := bufio.NewScanner(strings.NewReader(out.String()))
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				addr = m[1]
			}
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/v1/neighbors/1", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var nb api.NeighborsResponse
	if err := json.NewDecoder(resp.Body).Decode(&nb); err != nil {
		t.Fatal(err)
	}
	if len(nb.Neighbors) != 1 || nb.Neighbors[0] != 2 {
		t.Fatalf("neighbors over HTTP = %v", nb.Neighbors)
	}

	// The versioned stats document is live.
	statsResp, err := http.Get(fmt.Sprintf("http://%s%s", addr, api.PathStats))
	if err != nil {
		t.Fatal(err)
	}
	var st api.StatsResponse
	err = json.NewDecoder(statsResp.Body).Decode(&st)
	statsResp.Body.Close()
	if err != nil || st.Version != api.Version {
		t.Fatalf("GET %s: version %d (%v)", api.PathStats, st.Version, err)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}

	if err := run(&out, []string{"-listen", "127.0.0.1:0"}, stop); err == nil {
		t.Error("missing -store accepted")
	}
}

// TestRunRefusesEmptyAddress: a doubled comma in -store or -replicas
// fails instead of silently dropping the entry, which would dial a
// client with one shard fewer and shift every later shard's range.
func TestRunRefusesEmptyAddress(t *testing.T) {
	cluster, err := netstore.StartCluster(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	live := strings.Join(cluster.Addrs(), ",")
	gapped := strings.Join(cluster.Addrs(), ",,")

	var out safeBuffer
	stop := make(chan struct{})
	close(stop)
	for _, args := range [][]string{
		{"-store", gapped},
		{"-store", live, "-replicas", gapped},
	} {
		args = append(args, "-listen", "127.0.0.1:0", "-partitions", "2")
		if err := run(&out, args, stop); err == nil || !strings.Contains(err.Error(), "empty address") {
			t.Errorf("%q: err = %v, want an empty-address error", args, err)
		}
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer shared between run's
// writer goroutine and the polling test reader.
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
