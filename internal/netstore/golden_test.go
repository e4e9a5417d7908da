package netstore

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/profile"
)

// wireGolden is the recorded session TestWireSessionGolden replays. A
// missing file is written from the current code and the test fails, so
// a golden is only ever recorded on purpose.
const wireGolden = "testdata/wire_session.golden"

// recorder forwards whole frames between every peer it accepts and one
// backend, logging each payload it forwards. A connection is logged
// under name/watch when its first request is WATCH and name/rpc
// otherwise; a second connection of either kind gets its own key, which
// the golden would show. Heartbeats are not logged: how many a WATCH
// stream carries depends on timing, not on the protocol.
type recorder struct {
	ln      net.Listener
	backend string
	name    string

	mu    sync.Mutex
	links map[string][]string
	wg    sync.WaitGroup
}

func newRecorder(t *testing.T, name, backend string) *recorder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{ln: ln, backend: backend, name: name, links: make(map[string][]string)}
	r.wg.Add(1)
	go r.acceptLoop()
	return r
}

func (r *recorder) Addr() string { return r.ln.Addr().String() }

// close stops accepting and waits for every link to end; the peers must
// have hung up (or the backend closed) first.
func (r *recorder) close() {
	r.ln.Close()
	r.wg.Wait()
}

func (r *recorder) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go r.link(conn)
	}
}

func (r *recorder) log(key, dir string, payload []byte) {
	r.mu.Lock()
	r.links[key] = append(r.links[key], dir+" "+hex.EncodeToString(payload))
	r.mu.Unlock()
}

// claim names a new link of the given kind.
func (r *recorder) claim(kind string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.name + "/" + kind
	for n := 2; ; n++ {
		if _, taken := r.links[key]; !taken {
			r.links[key] = nil
			return key
		}
		key = fmt.Sprintf("%s/%s#%d", r.name, kind, n)
	}
}

func (r *recorder) link(peer net.Conn) {
	defer r.wg.Done()
	defer peer.Close()
	backend, err := net.Dial("tcp", r.backend)
	if err != nil {
		return
	}
	defer backend.Close()
	first, err := readFrame(peer)
	if err != nil {
		return
	}
	watch := len(first) > 0 && first[0] == opWatch
	key := r.claim(map[bool]string{true: "watch", false: "rpc"}[watch])
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer peer.Close()
		for {
			resp, err := readFrame(backend)
			if err != nil {
				return
			}
			if !(watch && len(resp) == 1 && resp[0] == statusOK) {
				r.log(key, "<", resp)
			}
			if writeFrame(peer, resp) != nil {
				return
			}
		}
	}()
	for req := first; ; {
		r.log(key, ">", req)
		if writeFrame(backend, req) != nil {
			break
		}
		if req, err = readFrame(peer); err != nil {
			break
		}
	}
	backend.Close()
	<-done
}

// render lays the logged links out in key order.
func (r *recorder) render(b *strings.Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.links))
	for k := range r.links {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "== %s\n", k)
		for _, line := range r.links[k] {
			b.WriteString(line + "\n")
		}
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireSessionGolden pins the wire byte for byte: a scripted session
// issues every verb once — to a durable primary, through a replica that
// shadows it, and on the WATCH stream between them — while recorders
// between each pair log every frame in both directions. The log, and
// the journal the shard is left with after a compaction and a tail of
// appends, must match the recorded golden.
func TestWireSessionGolden(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	toPrimary := newRecorder(t, "primary", srv.Addr())
	toReplicaPrimary := newRecorder(t, "replica-primary", srv.Addr())
	rep, err := NewReplica(ReplicaConfig{
		Addr: "127.0.0.1:0", Primary: toReplicaPrimary.Addr(), Shard: 0, Shards: 1, NumPartitions: 4,
		ProbeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	toReplica := newRecorder(t, "replica", rep.Addr())
	// Subscribed before the first view PUT, so every view ships live and
	// the snapshot is empty whatever the timing.
	waitFor(t, "the replica's subscription", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.watchers) == 1
	})

	client, err := Dial([]string{toPrimary.Addr()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 1.5}, {Item: 8, Weight: -1}})
	if err != nil {
		t.Fatal(err)
	}
	blob := vec.AppendBinary(nil)
	view1 := EncodeView([]ViewEntry{
		{User: 5, Neighbors: []uint32{6, 9}, Profile: blob},
		{User: 6, Neighbors: []uint32{5}, Profile: []byte{}},
	})
	var token uint64
	expect := func(want error) func(error) error {
		return func(err error) error {
			if !errors.Is(err, want) {
				return fmt.Errorf("got %v, want %v", err, want)
			}
			return nil
		}
	}
	ok := func(err error) error { return err }
	steps := []struct {
		name  string
		run   func() error
		check func(error) error
	}{
		{"PUT base 0", func() error { return client.PutBase(0, []byte("base-0")) }, ok},
		{"PUT base 1", func() error { return client.PutBase(1, []byte("base-1")) }, ok},
		{"LEASE", func() error { var err error; token, err = client.Lease(1); return err }, ok},
		{"PUT partial", func() error { return client.PutPartial(1, token, []byte("partial-1")) }, ok},
		{"GET", func() error { _, err := client.Get(1); return err }, ok},
		{"COLLECT", func() error { return client.Collect(func(CollectItem) error { return nil }) }, ok},
		{"RELEASE", func() error { return client.Release(1, token) }, ok},
		{"PUT partial, released token", func() error { return client.PutPartial(1, token, []byte("late")) }, expect(ErrStaleLease)},
		{"PUT view", func() error { return client.PutView(1, view1) }, ok},
		{"PUT deltaview", func() error { return client.PutDeltaView(2, viewFor(7, 4)) }, ok},
		{"EPOCH", func() error { _, _, err := client.Epoch(1); return err }, ok},
		{"GETVIEW", func() error { _, _, err := client.GetView(1); return err }, ok},
		{"NEIGHBORS", func() error { _, _, err := client.Neighbors(5); return err }, ok},
		{"PROFILE", func() error { _, _, err := client.ProfileBytes(5); return err }, ok},
		{"PUSHUPD", func() error {
			return client.PushUpdates([]profile.Update{{User: 5, Kind: profile.SetItem, Item: 3, Weight: 2}})
		}, ok},
		{"DRAINUPD", func() error { _, err := client.DrainUpdates(); return err }, ok},
		{"ADDUSER", func() error { return client.AddUser(8, blob) }, ok},
		{"DELUSER", func() error { return client.DelUser(6) }, ok},
		{"NEIGHBORS, tombstoned", func() error { _, _, err := client.Neighbors(6); return err }, expect(ErrNotServed)},
		{"DRAINMUT", func() error { _, err := client.DrainMutations(); return err }, ok},
		{"ADDUSER, queued", func() error { return client.AddUser(9, blob) }, ok},
		{"PUT stale", func() error {
			return client.PutStaleness(EncodeStaleness(api.StalenessResponse{LastFullEpoch: 1, Threshold: 0.5, Users: 10,
				Partitions: []api.PartitionStaleness{{Partition: 1, Adds: 1, Members: 2, Score: 0.5}}}))
		}, ok},
		{"STALENESS", func() error { _, _, err := client.Staleness(); return err }, ok},
		{"CLEAR", func() error { return client.Clear() }, ok},
		{"DELUSER, after the compaction", func() error { return client.DelUser(5) }, ok},
		{"PUSHUPD, after the compaction", func() error {
			return client.PushUpdates([]profile.Update{{User: 2, Kind: profile.RemoveItem, Item: 4}})
		}, ok},
		{"PUT base, after the compaction", func() error { return client.PutBase(3, []byte("base-3")) }, ok},
		{"LEASE, after the compaction", func() error { _, err := client.Lease(3); return err }, ok},
	}
	for _, s := range steps {
		if err := s.check(s.run()); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}

	// The replica serves the read verbs once both views have shipped, and
	// refuses the rest.
	waitFor(t, "both views on the replica", func() bool { return rep.Pulls() == 2 })
	rc, err := Dial([]string{toReplica.Addr()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Epoch(1); err != nil {
		t.Fatalf("replica EPOCH: %v", err)
	}
	if _, _, err := rc.GetView(2); err != nil {
		t.Fatalf("replica GETVIEW: %v", err)
	}
	if _, _, err := rc.Neighbors(5); err != nil {
		t.Fatalf("replica NEIGHBORS: %v", err)
	}
	if _, _, err := rc.ProfileBytes(7); err != nil {
		t.Fatalf("replica PROFILE: %v", err)
	}
	if _, err := rc.Get(1); err == nil {
		t.Fatal("replica answered GET")
	}

	journal := readJournal(t, dir)
	rc.Close()
	client.Close()
	rep.Close()
	srv.Close()
	toPrimary.close()
	toReplicaPrimary.close()
	toReplica.close()

	var b strings.Builder
	for _, r := range []*recorder{toPrimary, toReplicaPrimary, toReplica} {
		r.render(&b)
	}
	b.WriteString("== journal\n")
	for len(journal) > 0 {
		n := min(len(journal), 64)
		b.WriteString(hex.EncodeToString(journal[:n]) + "\n")
		journal = journal[n:]
	}
	got := b.String()

	want, err := os.ReadFile(wireGolden)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(wireGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s from the current code; commit it and rerun", wireGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("wire session differs from %s at line %d:\n got %s\nwant %s", wireGolden, i+1, g, w)
			}
		}
	}
}
