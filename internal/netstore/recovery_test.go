package netstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"knnpc/internal/profile"
)

// startDurable launches a single durable shard over dir, returning the
// server and a client dialed at it.
func startDurable(t *testing.T, addr, dir string) (*Server, *Client) {
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
	if err := client.PutStaleness(EncodeStaleness(StalenessDoc{LastFullEpoch: 2, Users: 8})); err != nil {
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
// per-iteration commit marker — cuts a snapshot and truncates the
// journal, so recovery after a long run replays one iteration's tail,
// not the whole history.
func TestSnapshotCutOnCommitMarker(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	defer srv.Close()
	defer client.Close()

	if err := client.PutBase(0, []byte("iteration-state")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot exists before any commit marker: %v", err)
	}
	if err := client.PutStaleness(EncodeStaleness(StalenessDoc{LastFullEpoch: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("commit marker cut no snapshot: %v", err)
	}
	info, err := os.Stat(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("journal holds %d bytes after a snapshot cut, want 0", info.Size())
	}
}

// TestRecoveryAfterSnapshotCutAndAppend: records appended *after* a
// snapshot cut start at journal offset zero — the cut must rewind the
// fd along with the truncate, or every post-cut append lands past a
// zero-filled hole that replay reads as a garbage record. (Found by
// scripts/e2e_chaos.sh: the first mid-run crash after a commit-marker
// cut could not recover.)
func TestRecoveryAfterSnapshotCutAndAppend(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(0, []byte("pre-cut")); err != nil {
		t.Fatal(err)
	}
	// The commit marker cuts a snapshot and truncates the journal.
	if err := client.PutStaleness(EncodeStaleness(StalenessDoc{LastFullEpoch: 1})); err != nil {
		t.Fatal(err)
	}
	if err := client.PutBase(1, []byte("post-cut")); err != nil {
		t.Fatal(err)
	}
	// The post-cut record must sit at offset zero, not past a hole.
	info, err := os.Stat(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 + 1 + 4 + 1 + 8 + len("post-cut")); info.Size() != want {
		t.Fatalf("post-cut journal is %d bytes, want %d (a hole before the record?)", info.Size(), want)
	}
	client.Close()
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()
	if got, err := client2.Get(0); err != nil || string(got) != "pre-cut" {
		t.Fatalf("snapshot state = %q, %v", got, err)
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
	if err := client.PutStaleness(EncodeStaleness(StalenessDoc{LastFullEpoch: 3})); err != nil {
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

// TestJournalFailureFailsTheVerb: a DELUSER or a drain whose journal
// append fails must fail — and leave memory where the journal is — or
// the shard runs ahead of its own log: a restart would resurrect the
// user its caller was told is gone, and hand the engine a batch it has
// already drained. The journal's descriptor is closed underneath a live
// shard, the shape a full or yanked disk gives every later append.
func TestJournalFailureFailsTheVerb(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	vec, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PushUpdates([]profile.Update{{User: 5, Kind: profile.SetItem, Item: 3, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := client.AddUser(6, vec.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	srv.durable.journal.Close()
	srv.mu.Unlock()

	if err := client.DelUser(7); err == nil {
		t.Error("DELUSER answered OK though its journal record was never written")
	}
	if ups, err := client.DrainUpdates(); err == nil {
		t.Errorf("DRAINUPD handed out %d updates though the drain was never journaled", len(ups))
	}
	if muts, err := client.DrainMutations(); err == nil {
		t.Errorf("DRAINMUT handed out %d mutations though the drain was never journaled", len(muts))
	}
	srv.mu.Lock()
	_, dead := srv.tombstones[7]
	queued := len(srv.updates) + len(srv.mutations)
	srv.mu.Unlock()
	if dead || queued != 2 {
		t.Errorf("failed verbs still mutated memory: user 7 tombstoned=%v, %d of 2 batches still queued", dead, queued)
	}
	client.Close()
	srv.Close()

	// The recovered shard agrees with what the callers were told:
	// nobody was deleted and nothing was drained.
	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()
	srv2.mu.Lock()
	_, dead = srv2.tombstones[7]
	srv2.mu.Unlock()
	if dead {
		t.Error("user 7 is tombstoned after recovery though its DELUSER failed")
	}
	if ups, err := client2.DrainUpdates(); err != nil || len(ups) != 1 {
		t.Errorf("recovered update queue = %v, %v; want the 1 undrained update", ups, err)
	}
	if muts, err := client2.DrainMutations(); err != nil || len(muts) != 1 {
		t.Errorf("recovered mutation queue = %v, %v; want the 1 undrained mutation", muts, err)
	}
}
