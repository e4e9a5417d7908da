package netstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/profile"
)

// startDurable launches a single durable shard over dir, returning the
// server and a client dialed at it.
func startDurable(t testing.TB, addr, dir string) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr: addr, Shard: 0, Shards: 1, NumPartitions: 4, DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialOptions([]string{srv.Addr()}, 4, fastOpts)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, client
}

// TestRecoveryReplayEqualsPreCrashState: every durable surface written
// before an abrupt stop — bases, views, partials, tombstones, queued
// updates and mutations, the staleness doc — reads back identically
// from a server recovered over the same data directory.
func TestRecoveryReplayEqualsPreCrashState(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(1, []byte("base-1")); err != nil {
		t.Fatal(err)
	}
	token, err := client.Lease(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PutPartial(1, token, []byte("partial-1")); err != nil {
		t.Fatal(err)
	}
	vec, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	view := EncodeView([]ViewEntry{{User: 5, Neighbors: []uint32{1, 9}, Profile: vec.AppendBinary(nil)}})
	if err := client.PutView(1, view); err != nil {
		t.Fatal(err)
	}
	if err := client.PushUpdates([]profile.Update{{User: 5, Kind: profile.SetItem, Item: 3, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := client.AddUser(6, vec.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if err := client.DelUser(7); err != nil {
		t.Fatal(err)
	}
	if err := client.PutStaleness(EncodeStaleness(api.StalenessResponse{LastFullEpoch: 2, Users: 8})); err != nil {
		t.Fatal(err)
	}
	baseEpoch, viewEpoch, err := client.Epoch(1)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	// Abrupt stop: no snapshot on close, the journal is the truth.
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()

	if got, err := client2.Get(1); err != nil || string(got) != "base-1" {
		t.Fatalf("recovered base = %q, %v", got, err)
	}
	if be, ve, err := client2.Epoch(1); err != nil || be != baseEpoch || ve != viewEpoch {
		t.Fatalf("recovered epochs = (%d, %d), %v; want (%d, %d)", be, ve, err, baseEpoch, viewEpoch)
	}
	if _, blob, err := client2.GetView(1); err != nil || !bytes.Equal(blob, view) {
		t.Fatalf("recovered view mismatch: %v", err)
	}
	if epoch, ids, err := client2.Neighbors(5); err != nil || len(ids) != 2 || epoch != viewEpoch {
		t.Fatalf("recovered lookup = (%d, %v, %v)", epoch, ids, err)
	}
	// The tombstone survived: user 7 answers not-served, not a scan.
	if _, _, err := client2.Neighbors(7); !errors.Is(err, ErrNotServed) {
		t.Fatalf("tombstoned lookup after recovery = %v, want ErrNotServed", err)
	}
	doc, ok, err := client2.Staleness()
	if err != nil || !ok || doc.LastFullEpoch != 2 || doc.Users != 8 {
		t.Fatalf("recovered staleness = %+v, %v, %v", doc, ok, err)
	}
	ups, err := client2.DrainUpdates()
	if err != nil || len(ups) != 1 || ups[0].User != 5 {
		t.Fatalf("recovered updates = %v, %v", ups, err)
	}
	muts, err := client2.DrainMutations()
	if err != nil || len(muts) != 2 {
		t.Fatalf("recovered mutations = %v, %v", muts, err)
	}
	// The pre-crash partial replayed, and a base PUT after recovery —
	// the first thing a restarted compute does to the partition — still
	// drops it: the healed attempt collects its own partials only.
	partials := func() int {
		n := -1
		err := client2.Collect(func(it CollectItem) error {
			if it.Partition == 1 {
				n = len(it.Partials)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := partials(); n != 1 {
		t.Fatalf("recovered shard holds %d partials of partition 1, want the 1 replayed", n)
	}
	if err := client2.PutBase(1, []byte("base-1")); err != nil {
		t.Fatal(err)
	}
	if n := partials(); n != 0 {
		t.Fatalf("%d partials of partition 1 survived the post-recovery base PUT", n)
	}
}

// TestRecoveryLeaseFencing: a lease token issued before the crash is
// dead after recovery — the restart wipes the volatile lease table, so
// a pre-crash worker's write-back answers ErrStaleLease instead of
// contaminating the healed run.
func TestRecoveryLeaseFencing(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(2, []byte("state")); err != nil {
		t.Fatal(err)
	}
	preCrash, err := client.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()

	if err := client2.PutPartial(2, preCrash, []byte("zombie")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("pre-crash token accepted: %v, want ErrStaleLease", err)
	}
	// Token monotonicity across the crash: the healed worker's fresh
	// lease never collides with the fenced one.
	fresh, err := client2.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh <= preCrash {
		t.Fatalf("post-recovery token %d not past pre-crash token %d", fresh, preCrash)
	}
	if err := client2.PutPartial(2, fresh, []byte("healed")); err != nil {
		t.Fatalf("fresh token rejected: %v", err)
	}
}

// TestClientReconnectAcrossRestart: one Client rides a server restart
// — the idempotent retry path redials the poisoned connection and the
// read answers from the recovered state, with no re-dial by the
// caller.
func TestClientReconnectAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4, DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	// The default retry ladder, squeezed in time: the reconnect under
	// test is the redial inside roundTripRetry, not the backoff length.
	client, err := DialOptions([]string{addr}, 4, ClientOptions{
		MaxAttempts: 4,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.PutBase(0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(0); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2, err := NewServer(ServerConfig{
		Addr: addr, Shard: 0, Shards: 1, NumPartitions: 4, DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// Same client object: the first attempt fails on the dead conn, the
	// retry ladder redials the restarted server and reads the recovered
	// state.
	blob, err := client.Get(0)
	if err != nil || string(blob) != "durable" {
		t.Fatalf("reconnect Get = %q, %v", blob, err)
	}
}

// TestRecoveryTornJournalTail: garbage appended past the last whole
// journal record — the shape a mid-append crash leaves — is truncated
// on recovery; the whole records replay and new appends land cleanly
// after the cut.
func TestRecoveryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(3, []byte("whole-record")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close()

	journal := filepath.Join(dir, "journal")
	pre, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre) == 0 {
		t.Fatal("journal empty before tear; the test would be vacuous")
	}
	// A torn append: a length prefix promising more than was written.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x40, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()

	if got, err := client2.Get(3); err != nil || string(got) != "whole-record" {
		t.Fatalf("recovered base = %q, %v", got, err)
	}
	post, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(post, pre) {
		t.Fatalf("torn tail not truncated: journal is %d bytes, want %d", len(post), len(pre))
	}
	if err := client2.PutBase(3, []byte("after-cut")); err != nil {
		t.Fatal(err)
	}
	if got, err := client2.Get(3); err != nil || string(got) != "after-cut" {
		t.Fatalf("post-cut base = %q, %v", got, err)
	}
}

// TestSnapshotCutOnCommitMarker: a staleness publish — the engine's
// per-iteration commit marker — compacts the journal: afterwards the one
// file holds exactly the compaction of the live state, so recovery after
// a long run replays one iteration's tail, not the whole history. No
// second file is left behind.
func TestSnapshotCutOnCommitMarker(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	defer srv.Close()
	defer client.Close()

	if err := client.PutBase(0, []byte("iteration-state")); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(readJournal(t, dir), compaction(t, srv)) {
		t.Fatal("journal already equals its compaction before any commit marker; the test would be vacuous")
	}
	if err := client.PutStaleness(EncodeStaleness(api.StalenessResponse{LastFullEpoch: 1})); err != nil {
		t.Fatal(err)
	}
	if got, want := readJournal(t, dir), compaction(t, srv); !bytes.Equal(got, want) {
		t.Fatalf("journal after the commit marker is %d bytes, want its %d-byte compaction", len(got), len(want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "journal" {
		t.Fatalf("data directory holds %v, want the journal alone", entries)
	}
}

// TestRecoveryAfterSnapshotCutAndAppend: a record appended *after* a
// compaction lands directly behind the compacted prefix — appends
// continue on the renamed file's descriptor, not on the old one, whose
// inode is gone, and not past a hole that replay would read as a
// garbage record. (The hole was found by scripts/e2e_chaos.sh: the
// first mid-run crash after a commit-marker cut could not recover.)
func TestRecoveryAfterSnapshotCutAndAppend(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(0, []byte("pre-cut")); err != nil {
		t.Fatal(err)
	}
	// The commit marker compacts the journal.
	if err := client.PutStaleness(EncodeStaleness(api.StalenessResponse{LastFullEpoch: 1})); err != nil {
		t.Fatal(err)
	}
	compacted := int64(len(readJournal(t, dir)))
	if err := client.PutBase(1, []byte("post-cut")); err != nil {
		t.Fatal(err)
	}
	// The post-cut record must sit right after the compaction, not past a hole.
	info, err := os.Stat(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if want := compacted + int64(4+1+4+1+8+len("post-cut")); info.Size() != want {
		t.Fatalf("post-cut journal is %d bytes, want %d (a hole before the record?)", info.Size(), want)
	}
	client.Close()
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()
	if got, err := client2.Get(0); err != nil || string(got) != "pre-cut" {
		t.Fatalf("compacted state = %q, %v", got, err)
	}
	if got, err := client2.Get(1); err != nil || string(got) != "post-cut" {
		t.Fatalf("post-cut journal state = %q, %v", got, err)
	}
}

// TestRecoveryFromSnapshotOnly: state that lives entirely in the
// snapshot (journal truncated by the commit-marker cut) recovers
// without any journal records to replay.
func TestRecoveryFromSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(1, []byte("snapped")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutStaleness(EncodeStaleness(api.StalenessResponse{LastFullEpoch: 3})); err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()
	if got, err := client2.Get(1); err != nil || string(got) != "snapped" {
		t.Fatalf("snapshot-only recovery Get = %q, %v", got, err)
	}
	doc, ok, err := client2.Staleness()
	if err != nil || !ok || doc.LastFullEpoch != 3 {
		t.Fatalf("snapshot-only staleness = %+v, %v, %v", doc, ok, err)
	}
}

// TestJournalFailureFailsTheVerb: a mutating verb whose journal append
// fails must fail and leave memory where the journal is, or the shard
// runs ahead of its own log — a restart would resurrect a user its
// caller was told is gone, hand the engine a batch it already drained,
// re-grant a token, or lose a base its caller retries into a second
// epoch bump. The journal's descriptor is closed underneath a live
// shard, the shape a full or yanked disk gives every later append.
func TestJournalFailureFailsTheVerb(t *testing.T) {
	vec, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		verb string
		do   func(c *Client, token uint64) error
	}{
		{"PUT base", func(c *Client, _ uint64) error { return c.PutBase(1, []byte("next-base")) }},
		{"PUT partial", func(c *Client, tok uint64) error { return c.PutPartial(1, tok, []byte("next-partial")) }},
		{"PUT view", func(c *Client, _ uint64) error { return c.PutView(1, viewFor(5, 9)) }},
		{"PUT deltaview", func(c *Client, _ uint64) error { return c.PutDeltaView(1, viewFor(5, 9)) }},
		{"PUT stale", func(c *Client, _ uint64) error {
			return c.PutStaleness(EncodeStaleness(api.StalenessResponse{LastFullEpoch: 9}))
		}},
		{"LEASE", func(c *Client, _ uint64) error { _, err := c.Lease(1); return err }},
		{"CLEAR", func(c *Client, _ uint64) error { return c.Clear() }},
		{"PUSHUPD", func(c *Client, _ uint64) error {
			return c.PushUpdates([]profile.Update{{User: 8, Kind: profile.SetItem, Item: 4, Weight: 1}})
		}},
		{"ADDUSER", func(c *Client, _ uint64) error { return c.AddUser(7, vec.AppendBinary(nil)) }},
		{"DELUSER", func(c *Client, _ uint64) error { return c.DelUser(6) }},
		{"DRAINUPD", func(c *Client, _ uint64) error { _, err := c.DrainUpdates(); return err }},
		{"DRAINMUT", func(c *Client, _ uint64) error { _, err := c.DrainMutations(); return err }},
	} {
		t.Run(row.verb, func(t *testing.T) {
			dir := t.TempDir()
			srv, client := startDurable(t, "127.0.0.1:0", dir)
			addr := srv.Addr()
			token := populate(t, client)
			state, leases := dumpShard(srv), leaseDump(srv)

			srv.mu.Lock()
			srv.durable.journal.Close()
			srv.mu.Unlock()

			if err := row.do(client, token); err == nil {
				t.Errorf("%s answered OK though its journal record was never written", row.verb)
			}
			if got := dumpShard(srv); got != state {
				t.Errorf("failed %s still changed the shard:\n%s\nwant\n%s", row.verb, got, state)
			}
			if got := leaseDump(srv); got != leases {
				t.Errorf("failed %s still changed the leases: %s, want %s", row.verb, got, leases)
			}
			client.Close()
			srv.Close()

			srv2, client2 := startDurable(t, addr, dir)
			defer srv2.Close()
			defer client2.Close()
			if got := dumpShard(srv2); got != state {
				t.Errorf("recovered shard after a failed %s:\n%s\nwant the pre-failure\n%s", row.verb, got, state)
			}
		})
	}
}

// tearingJournal lets the next append through for its first keep bytes
// and then fails it, the shape a full disk gives a write; failTruncate
// also fails the truncate that would cut the partial record away.
type tearingJournal struct {
	journalFile
	keep         int // bytes still let through; -1 once the append tore
	failTruncate bool
}

var errTear = errors.New("injected short write")

func (j *tearingJournal) Write(p []byte) (int, error) {
	if j.keep < 0 || len(p) <= j.keep {
		if j.keep >= 0 {
			j.keep -= len(p)
		}
		return j.journalFile.Write(p)
	}
	n, _ := j.journalFile.Write(p[:j.keep])
	j.keep = -1
	return n, errTear
}

func (j *tearingJournal) Truncate(size int64) error {
	if j.failTruncate {
		return errTear
	}
	return j.journalFile.Truncate(size)
}

// TestTornJournalAppendIsTruncated: a verb whose journal append writes
// half its frame and fails answers an error and leaves no partial
// record behind, so the next verb's record lands where the torn one
// started and a restart over the data directory recovers exactly the
// live shard. When the partial record cannot be truncated either, the
// shard refuses every later mutating verb instead of journaling after
// it, and a restart drops the torn tail and comes back with the state
// from before the failure.
func TestTornJournalAppendIsTruncated(t *testing.T) {
	push := func(c *Client, user uint32) error {
		return c.PushUpdates([]profile.Update{{User: user, Kind: profile.SetItem, Item: 4, Weight: 1}})
	}
	for _, failTruncate := range []bool{false, true} {
		t.Run(fmt.Sprintf("failTruncate=%v", failTruncate), func(t *testing.T) {
			dir := t.TempDir()
			srv, client := startDurable(t, "127.0.0.1:0", dir)
			addr := srv.Addr()
			token := populate(t, client)
			before := dumpShard(srv)
			srv.mu.Lock()
			// The 4-byte length prefix and the opcode land; the body does not.
			srv.durable.journal = &tearingJournal{journalFile: srv.durable.journal, keep: 5, failTruncate: failTruncate}
			srv.mu.Unlock()

			if err := push(client, 8); err == nil {
				t.Fatal("a push whose journal append tore answered OK")
			}
			if got := dumpShard(srv); got != before {
				t.Fatalf("the torn push changed the shard:\n%s\nwant\n%s", got, before)
			}
			next := push(client, 9)
			release := client.Release(1, token)
			if failTruncate {
				if next == nil || release == nil {
					t.Fatalf("a shard with a torn journal record accepted a push (%v) and a release (%v)", next, release)
				}
			} else if next != nil || release != nil {
				t.Fatalf("verbs after a truncated torn append failed: push %v, release %v", next, release)
			}
			live := dumpShard(srv)
			if failTruncate && live != before {
				t.Fatalf("the fail-stopped shard changed:\n%s\nwant\n%s", live, before)
			}
			client.Close()
			srv.Close()

			srv2, client2 := startDurable(t, addr, dir)
			defer srv2.Close()
			defer client2.Close()
			if got := dumpShard(srv2); got != live {
				t.Fatalf("recovered shard\n%s\nwant the live\n%s", got, live)
			}
			if err := push(client2, 10); err != nil {
				t.Fatalf("push after the restart: %v", err)
			}
		})
	}
}

// TestRecoveryMatchesLiveState: after every one of a few hundred seeded
// random mutating verbs — stale-token partials, releases, commit
// markers and re-adds of tombstoned users among them — a copy of the
// data directory recovers to exactly the live shard, with an empty
// lease table. The second pass compacts after every verb, so each cut
// point is also a crash between a compaction and the next append.
func TestRecoveryMatchesLiveState(t *testing.T) {
	for _, compactEach := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compactEach), func(t *testing.T) {
			dir := t.TempDir()
			srv, client := startDurable(t, "127.0.0.1:0", dir)
			defer srv.Close()
			defer client.Close()
			rng := rand.New(rand.NewPCG(7, 11))
			var tokens [][2]uint64 // (partition, token), live or not
			failed := 0
			const ops = 300
			for i := 0; i < ops; i++ {
				verb, err := randomVerb(rng, client, &tokens)
				if err != nil {
					if !errors.Is(err, ErrStaleLease) && !strings.Contains(err.Error(), "no stored state") {
						t.Fatalf("op %d (%s): %v", i, verb, err)
					}
					failed++
				}
				if compactEach {
					srv.mu.Lock()
					err := srv.compactLocked()
					srv.mu.Unlock()
					if err != nil {
						t.Fatal(err)
					}
				}
				rec := recoverCopy(t, dir)
				if got, want := dumpShard(rec), dumpShard(srv); got != want {
					t.Fatalf("after op %d (%s) the recovered shard is\n%s\nwant the live\n%s", i, verb, got, want)
				}
				if l := leaseDump(rec); l != "" {
					t.Fatalf("after op %d (%s) the recovered shard holds leases %s", i, verb, l)
				}
				rec.Close()
			}
			if failed > ops/2 {
				t.Fatalf("%d of %d verbs were refused; the walk is mostly no-ops", failed, ops)
			}
		})
	}
}

// TestCompactionCrashShapes: a crash anywhere inside a compaction
// recovers to the same state — before the temp file exists, with it
// torn, with it whole but not renamed, and after the rename — so no
// base PUT's epoch is bumped twice and no update batch queues twice. A
// data directory in the older snapshot+journal layout is refused by
// name rather than started without its snapshot.
func TestCompactionCrashShapes(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	populate(t, client)
	want := dumpShard(srv)
	srv.mu.Lock()
	wantEpoch, wantUpdates := srv.epochs[1], len(srv.updates)
	srv.mu.Unlock()
	compacted := compaction(t, srv)
	client.Close()
	srv.Close()
	journal := readJournal(t, dir)
	if bytes.Equal(journal, compacted) {
		t.Fatal("journal equals its compaction; the shapes would not differ")
	}

	for _, shape := range []struct {
		name         string
		journal, tmp []byte
	}{
		{"no tmp", journal, nil},
		{"torn tmp", journal, compacted[:len(compacted)/2]},
		{"tmp not renamed", journal, compacted},
		{"renamed", compacted, nil},
	} {
		t.Run(shape.name, func(t *testing.T) {
			d := t.TempDir()
			writeFile(t, filepath.Join(d, "journal"), shape.journal)
			if shape.tmp != nil {
				writeFile(t, filepath.Join(d, "journal.tmp"), shape.tmp)
			}
			srv2, client2 := startDurable(t, "127.0.0.1:0", d)
			defer srv2.Close()
			defer client2.Close()
			if got := dumpShard(srv2); got != want {
				t.Fatalf("recovered\n%s\nwant\n%s", got, want)
			}
			srv2.mu.Lock()
			epoch, updates := srv2.epochs[1], len(srv2.updates)
			srv2.mu.Unlock()
			if epoch != wantEpoch || updates != wantUpdates {
				t.Fatalf("partition 1 epoch %d with %d queued batches, want %d and %d", epoch, updates, wantEpoch, wantUpdates)
			}
			if _, err := os.Stat(filepath.Join(d, "journal.tmp")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("journal.tmp survived recovery: %v", err)
			}
		})
	}

	t.Run("older snapshot layout", func(t *testing.T) {
		d := t.TempDir()
		writeFile(t, filepath.Join(d, "journal"), nil)
		writeFile(t, filepath.Join(d, "snapshot"), []byte("KSN1"))
		srv2, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4, DataDir: d})
		if err == nil {
			srv2.Close()
			t.Fatal("a data directory holding a snapshot file started")
		}
		if !strings.Contains(err.Error(), filepath.Join(d, "snapshot")) {
			t.Fatalf("refusal %q does not name the snapshot file", err)
		}
	})
}

// populate drives one of every mutating verb, with a commit marker in
// the middle so the journal ends up as a compaction plus a tail, and
// returns a lease token live on partition 1.
func populate(tb testing.TB, c *Client) (token uint64) {
	tb.Helper()
	vec, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 1.5}})
	if err != nil {
		tb.Fatal(err)
	}
	blob := vec.AppendBinary(nil)
	steps := []func() error{
		func() error { return c.PutBase(1, []byte("base-1")) },
		func() error { return c.PutBase(2, []byte("base-2")) },
		func() error { token, err = c.Lease(2); return err },
		func() error { return c.PutPartial(2, token, []byte("partial-2")) },
		func() error { return c.Release(2, token) },
		func() error { return c.PutView(1, viewFor(5, 1)) },
		func() error { return c.PutDeltaView(3, viewFor(6, 1)) },
		func() error { return c.AddUser(6, blob) },
		func() error { return c.DelUser(7) },
		func() error {
			return c.PushUpdates([]profile.Update{{User: 5, Kind: profile.SetItem, Item: 3, Weight: 2}})
		},
		func() error {
			return c.PutStaleness(EncodeStaleness(api.StalenessResponse{LastFullEpoch: 1, Users: 8}))
		},
		func() error { return c.PutBase(1, []byte("base-1b")) },
		func() error { token, err = c.Lease(1); return err },
		func() error { return c.PutPartial(1, token, []byte("partial-1")) },
		func() error { return c.DelUser(6) },
		func() error { return c.AddUser(7, blob) },
		func() error { _, err := c.DrainUpdates(); return err },
		func() error {
			return c.PushUpdates([]profile.Update{{User: 4, Kind: profile.SetItem, Item: 2, Weight: 1}})
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			tb.Fatalf("populate step %d: %v", i, err)
		}
	}
	return token
}

// randomVerb sends one seeded random mutating verb, remembering every
// lease it is granted, and names it.
func randomVerb(rng *rand.Rand, c *Client, tokens *[][2]uint64) (string, error) {
	p := uint32(rng.IntN(4))
	u := uint32(rng.IntN(8))
	blob := []byte(fmt.Sprintf("blob-%d", rng.IntN(1000)))
	pick := func() (uint32, uint64) {
		if len(*tokens) == 0 {
			return p, uint64(rng.IntN(5))
		}
		lt := (*tokens)[rng.IntN(len(*tokens))]
		return uint32(lt[0]), lt[1]
	}
	view := func() []byte {
		var entries []ViewEntry
		for n := rng.IntN(3); n >= 0; n-- {
			entries = append(entries, ViewEntry{User: uint32(rng.IntN(8)), Neighbors: []uint32{u}, Profile: blob})
		}
		return EncodeView(entries)
	}
	switch rng.IntN(14) {
	case 0, 1:
		return "PUT base", c.PutBase(p, blob)
	case 2, 3:
		token, err := c.Lease(p)
		if err == nil {
			*tokens = append(*tokens, [2]uint64{uint64(p), token})
		}
		return "LEASE", err
	case 4, 5:
		lp, token := pick()
		return "PUT partial", c.PutPartial(lp, token, blob)
	case 6:
		lp, token := pick()
		return "RELEASE", c.Release(lp, token)
	case 7:
		return "PUT view", c.PutView(p, view())
	case 8:
		return "PUT deltaview", c.PutDeltaView(p, view())
	case 9:
		return "PUT stale", c.PutStaleness(EncodeStaleness(api.StalenessResponse{LastFullEpoch: rng.Uint64N(9), Users: 8}))
	case 10:
		if rng.IntN(3) == 0 {
			return "CLEAR", c.Clear()
		}
		return "PUSHUPD", c.PushUpdates([]profile.Update{{User: u, Kind: profile.SetItem, Item: p, Weight: 1}})
	case 11:
		return "ADDUSER", c.AddUser(u, blob)
	case 12:
		return "DELUSER", c.DelUser(u)
	default:
		if rng.IntN(2) == 0 {
			_, err := c.DrainUpdates()
			return "DRAINUPD", err
		}
		_, err := c.DrainMutations()
		return "DRAINMUT", err
	}
}

// dumpShard renders everything a shard's recovery must bring back —
// every durable map, walked in sorted key order — independently of the
// compaction writer, so a compaction that drops or mis-orders state
// shows as a difference. Leases are volatile (see leaseDump). The user
// index is derived from the views, and dumped so that a route that
// depends on install order shows too. An epoch of 0 is the same as none.
func dumpShard(s *Server) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "nextToken %d\nstaleness %x\n", s.nextToken, s.staleness)
	for _, p := range sortedKeys(s.epochs) {
		if s.epochs[p] != 0 {
			fmt.Fprintf(&b, "epoch %d = %d\n", p, s.epochs[p])
		}
	}
	for _, p := range sortedKeys(s.base) {
		fmt.Fprintf(&b, "base %d %x\n", p, s.base[p])
	}
	for _, p := range sortedKeys(s.partials) {
		for _, tok := range sortedKeys(s.partials[p]) {
			fmt.Fprintf(&b, "partial %d token %d %x\n", p, tok, s.partials[p][tok])
		}
	}
	for _, p := range sortedKeys(s.views) {
		fmt.Fprintf(&b, "view %d at %d %x\n", p, s.views[p].epoch, s.views[p].blob)
	}
	for _, u := range sortedKeys(s.userIdx) {
		fmt.Fprintf(&b, "route %d -> view %d\n", u, s.userIdx[u])
	}
	fmt.Fprintf(&b, "tombstones %v\n", sortedKeys(s.tombstones))
	for _, u := range s.updates {
		fmt.Fprintf(&b, "update %x\n", u)
	}
	for _, m := range s.mutations {
		fmt.Fprintf(&b, "mutation %x\n", m)
	}
	return b.String()
}

// leaseDump renders a shard's lease table, "" when it is empty.
func leaseDump(s *Server) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, p := range sortedKeys(s.leases) {
		fmt.Fprintf(&b, "%d:%v ", p, sortedKeys(s.leases[p]))
	}
	return b.String()
}

// compaction is what compacting srv now would write.
func compaction(tb testing.TB, srv *Server) []byte {
	tb.Helper()
	var buf bytes.Buffer
	srv.mu.Lock()
	err := srv.writeCompactionLocked(&buf)
	srv.mu.Unlock()
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// recoverCopy recovers a second shard from a copy of dir, the way a
// crash at this instant would find it.
func recoverCopy(t *testing.T, dir string) *Server {
	t.Helper()
	cp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(cp, e.Name()), data)
	}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4, DataDir: cp})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func readJournal(tb testing.TB, dir string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func writeFile(tb testing.TB, path string, data []byte) {
	tb.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
}
