package netstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"knnpc/internal/profile"
)

// viewFor builds a deterministic one-user serve view derived entirely
// from an epoch number, so a reader can verify that the epoch stamp and
// the payload it got belong together — any mix is a torn read.
func viewFor(user uint32, epoch uint64) []byte {
	return EncodeView([]ViewEntry{{
		User:      user,
		Neighbors: []uint32{uint32(epoch), uint32(epoch * 2), uint32(epoch * 3)},
		Profile:   []byte(fmt.Sprintf("profile-at-%d", epoch)),
	}})
}

// TestEpochBumpAndClear pins the epoch discipline: every base PUT
// advances the partition's epoch, views are stamped with the epoch
// current at publish time, and CLEAR keeps the serving state (epochs,
// views, pending updates) while dropping compute state.
func TestEpochBumpAndClear(t *testing.T) {
	_, client := startCluster(t, 2, 4, nil)
	if base, view, err := client.Epoch(1); err != nil || base != 0 || view != 0 {
		t.Fatalf("fresh partition epoch = (%d,%d,%v), want (0,0,nil)", base, view, err)
	}
	for i := 1; i <= 3; i++ {
		if err := client.PutBase(1, []byte("base")); err != nil {
			t.Fatal(err)
		}
		base, view, err := client.Epoch(1)
		if err != nil || base != uint64(i) || view != 0 {
			t.Fatalf("after %d base PUTs epoch = (%d,%d,%v), want (%d,0,nil)", i, base, view, err, i)
		}
	}
	if err := client.PutView(1, viewFor(7, 3)); err != nil {
		t.Fatal(err)
	}
	if base, view, err := client.Epoch(1); err != nil || base != 3 || view != 3 {
		t.Fatalf("after view PUT epoch = (%d,%d,%v), want (3,3,nil)", base, view, err)
	}

	if err := client.PushUpdates([]profile.Update{{User: 9, Kind: profile.SetItem, Item: 4, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := client.Clear(); err != nil {
		t.Fatal(err)
	}
	// Compute state is gone...
	if _, err := client.Get(1); err == nil {
		t.Fatal("base survived CLEAR")
	}
	// ...but the serving side is intact.
	if base, view, err := client.Epoch(1); err != nil || base != 3 || view != 3 {
		t.Fatalf("epoch after CLEAR = (%d,%d,%v), want (3,3,nil)", base, view, err)
	}
	if _, ids, err := client.Neighbors(7); err != nil || len(ids) != 3 {
		t.Fatalf("lookup after CLEAR: %v %v", ids, err)
	}
	upds, err := client.DrainUpdates()
	if err != nil || len(upds) != 1 || upds[0].User != 9 {
		t.Fatalf("updates after CLEAR: %v %v", upds, err)
	}
	// A new base PUT continues the counter — it never restarts at 1, so
	// replicas cannot confuse a later run's view with a cached one.
	if err := client.PutBase(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	if base, _, err := client.Epoch(1); err != nil || base != 4 {
		t.Fatalf("epoch after CLEAR+PUT = %d, want 4", base)
	}
}

// TestPointLookupRouting: lookups route across shards without leases —
// hint-cache hit, scatter on unknown user, statusMiss → ErrNotServed
// for a user in no view, and correct re-routing when a user moves
// shards between epochs.
func TestPointLookupRouting(t *testing.T) {
	const parts = 6
	_, client := startCluster(t, 3, parts, nil) // shard ranges [0,2) [2,4) [4,6)
	for p := uint32(0); p < parts; p++ {
		if err := client.PutBase(p, []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	// User 42 lives in partition 5 (shard 2); user 1 in partition 0.
	if err := client.PutView(5, EncodeView([]ViewEntry{{User: 42, Neighbors: []uint32{1, 2}, Profile: []byte("p42")}})); err != nil {
		t.Fatal(err)
	}
	if err := client.PutView(0, EncodeView([]ViewEntry{{User: 1, Neighbors: []uint32{42}, Profile: []byte("p1")}})); err != nil {
		t.Fatal(err)
	}
	if _, ids, err := client.Neighbors(42); err != nil || len(ids) != 2 {
		t.Fatalf("neighbors(42) = %v, %v", ids, err)
	}
	if _, blob, err := client.ProfileBytes(1); err != nil || string(blob) != "p1" {
		t.Fatalf("profile(1) = %q, %v", blob, err)
	}
	// Second lookup hits the hint cache (no observable difference, but
	// exercises the hinted path).
	if _, ids, err := client.Neighbors(42); err != nil || len(ids) != 2 {
		t.Fatalf("hinted neighbors(42) = %v, %v", ids, err)
	}
	if _, _, err := client.Neighbors(777); !errors.Is(err, ErrNotServed) {
		t.Fatalf("neighbors(777) = %v, want ErrNotServed", err)
	}
	// Next epoch moves user 42 to partition 0 (shard 0): the stale hint
	// must fall back to the scatter and find the new home.
	if err := client.PutBase(5, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutView(5, EncodeView(nil)); err != nil {
		t.Fatal(err)
	}
	if err := client.PutView(0, EncodeView([]ViewEntry{{User: 42, Neighbors: []uint32{9}, Profile: []byte("moved")}})); err != nil {
		t.Fatal(err)
	}
	if _, ids, err := client.Neighbors(42); err != nil || len(ids) != 1 || ids[0] != 9 {
		t.Fatalf("moved neighbors(42) = %v, %v", ids, err)
	}
}

// TestViewRouteIsCanonical: a user held by two views routes to the
// higher-numbered one whichever was installed last, falls back to the
// other when the higher drops it, and has no route once no view holds
// it — so a replayed or compacted shard routes exactly like the live
// one it recovers.
func TestViewRouteIsCanonical(t *testing.T) {
	view := func(epoch uint64, users ...uint32) serveView {
		var entries []ViewEntry
		for _, u := range users {
			entries = append(entries, ViewEntry{User: u})
		}
		v, err := newServeView(epoch, EncodeView(entries))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	forward, backward := newViewSet(), newViewSet()
	forward.setView(0, view(10, 1, 2))
	forward.setView(2, view(12, 1))
	backward.setView(2, view(12, 1))
	backward.setView(0, view(10, 1, 2))
	for name, vs := range map[string]viewSet{"forward": forward, "backward": backward} {
		if epoch, _, ok := vs.entry(1); !ok || epoch != 12 {
			t.Fatalf("%s install order: user 1 answered from epoch %d (ok=%v), want view 2's 12", name, epoch, ok)
		}
	}
	backward.setView(2, view(13))
	if epoch, _, ok := backward.entry(1); !ok || epoch != 10 {
		t.Fatalf("user 1 dropped from view 2 answered from epoch %d (ok=%v), want view 0's 10", epoch, ok)
	}
	backward.setView(0, view(14))
	if len(backward.userIdx) != 0 {
		t.Fatalf("no view holds a user, yet routes remain: %v", backward.userIdx)
	}
}

// TestUpdatePushDrain: updates pushed from multiple client batches
// drain in per-user order (same-shard routing by user id), across a
// multi-shard cluster.
func TestUpdatePushDrain(t *testing.T) {
	_, client := startCluster(t, 2, 4, nil)
	batch1 := []profile.Update{
		{User: 3, Kind: profile.SetItem, Item: 10, Weight: 1.5},
		{User: 4, Kind: profile.SetItem, Item: 11, Weight: 2},
	}
	batch2 := []profile.Update{
		{User: 3, Kind: profile.RemoveItem, Item: 10},
		{User: 4, Kind: profile.SetItem, Item: 11, Weight: 3},
	}
	if err := client.PushUpdates(batch1); err != nil {
		t.Fatal(err)
	}
	if err := client.PushUpdates(batch2); err != nil {
		t.Fatal(err)
	}
	got, err := client.DrainUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("drained %d updates, want 4", len(got))
	}
	// Per-user order: user 3's SetItem precedes its RemoveItem, user 4's
	// weight-2 precedes weight-3.
	var u3, u4 []profile.Update
	for _, u := range got {
		switch u.User {
		case 3:
			u3 = append(u3, u)
		case 4:
			u4 = append(u4, u)
		}
	}
	if len(u3) != 2 || u3[0].Kind != profile.SetItem || u3[1].Kind != profile.RemoveItem {
		t.Fatalf("user 3 order broken: %+v", u3)
	}
	if len(u4) != 2 || u4[0].Weight != 2 || u4[1].Weight != 3 {
		t.Fatalf("user 4 order broken: %+v", u4)
	}
	// Drained means drained.
	if again, err := client.DrainUpdates(); err != nil || len(again) != 0 {
		t.Fatalf("second drain: %v %v", again, err)
	}
}

func startReplicas(t *testing.T, cluster *Cluster, parts int) (*ReplicaSet, *Client) {
	t.Helper()
	rs, err := StartReplicas(cluster.Addrs(), parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	rc, err := Dial(rs.Addrs(), parts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rs, rc
}

// TestReplicaReadOnly: every compute verb is refused by a replica, and
// reads through a replica return the primary's published views.
func TestReplicaReadOnly(t *testing.T) {
	const parts = 4
	cluster, client := startCluster(t, 2, parts, nil)
	for p := uint32(0); p < parts; p++ {
		if err := client.PutBase(p, []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.PutView(2, viewFor(5, 1)); err != nil {
		t.Fatal(err)
	}
	_, rc := startReplicas(t, cluster, parts)

	if _, ids, err := rc.Neighbors(5); err != nil || len(ids) != 3 || ids[0] != 1 {
		t.Fatalf("replica neighbors(5) = %v, %v", ids, err)
	}
	if _, blob, err := rc.ProfileBytes(5); err != nil || string(blob) != "profile-at-1" {
		t.Fatalf("replica profile(5) = %q, %v", blob, err)
	}
	if epoch, blob, err := rc.GetView(2); err != nil || epoch != 1 || len(blob) == 0 {
		t.Fatalf("replica getview = (%d, %d bytes, %v)", epoch, len(blob), err)
	}
	if base, view, err := rc.Epoch(2); err != nil || base != 1 || view != 1 {
		t.Fatalf("replica epoch = (%d,%d,%v)", base, view, err)
	}
	if _, _, err := rc.Neighbors(999); !errors.Is(err, ErrNotServed) {
		t.Fatalf("replica neighbors(999) = %v, want ErrNotServed", err)
	}

	// Write verbs bounce.
	if err := rc.PutBase(2, []byte("evil")); err == nil {
		t.Fatal("replica accepted a base PUT")
	}
	if _, err := rc.Get(2); err == nil {
		t.Fatal("replica answered a compute GET")
	}
	if _, err := rc.Lease(2); err == nil {
		t.Fatal("replica granted a lease")
	}
	if err := rc.PushUpdates([]profile.Update{{User: 1, Kind: profile.SetItem, Item: 1, Weight: 1}}); err == nil {
		t.Fatal("replica accepted updates")
	}
	// The rejected PUT did not leak through to the primary.
	if got, err := client.Get(2); err != nil || string(got) != "b" {
		t.Fatalf("primary base after replica PUT attempt: %q, %v", got, err)
	}
}

// TestReplicaPullOnce: the primary ships each view to its replica once
// — the subscribe snapshot, then one transfer per published epoch — and
// no number of reads transfers it again. Views of other partitions
// ship on their own; base PUTs ship nothing.
func TestReplicaPullOnce(t *testing.T) {
	cluster, client := startCluster(t, 1, 2, nil)
	if err := client.PutBase(0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutView(0, viewFor(3, 1)); err != nil {
		t.Fatal(err)
	}
	rs, rc := startReplicas(t, cluster, 2)
	rep := rs.Replicas()[0]
	for i := 0; i < 25; i++ {
		if _, _, err := rc.Neighbors(3); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot held partition 0's view only; epoch probes repeat per
	// read, transfers must not.
	if pulls := rep.Pulls(); pulls != 1 {
		t.Fatalf("%d view transfers for one epoch, want 1", pulls)
	}
	// New epoch of partition 0, first view of partition 1: one transfer
	// each, however many reads follow.
	if err := client.PutBase(0, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutView(0, viewFor(3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := client.PutBase(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutView(1, viewFor(4, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if epoch, _, err := rc.Neighbors(3); err != nil || epoch != 2 {
			t.Fatalf("post-commit read = epoch %d, %v", epoch, err)
		}
		if epoch, _, err := rc.Neighbors(4); err != nil || epoch != 1 {
			t.Fatalf("read of partition 1 = epoch %d, %v", epoch, err)
		}
	}
	if pulls := rep.Pulls(); pulls != 3 {
		t.Fatalf("%d view transfers after three published views, want 3", pulls)
	}
}

// TestReplicaConcurrentReadersPullOnce: readers that race onto one
// partition right after a commit all see the new epoch, and the
// partition still costs exactly one transfer per published epoch —
// the stream carries each view once, whatever the number of readers
// waiting for it.
func TestReplicaConcurrentReadersPullOnce(t *testing.T) {
	cluster, client := startCluster(t, 1, 1, nil)
	rs, _ := startReplicas(t, cluster, 1)
	rep := rs.Replicas()[0]
	const readers = 16
	for epoch := uint64(1); epoch <= 5; epoch++ {
		if err := client.PutBase(0, []byte("b")); err != nil {
			t.Fatal(err)
		}
		if err := client.PutView(0, viewFor(3, epoch)); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make(chan error, readers)
		for i := 0; i < readers; i++ {
			go func() {
				<-start
				got, _, err := rep.lookup(3)
				if err == nil && got != epoch {
					err = fmt.Errorf("read epoch %d after commit of %d", got, epoch)
				}
				errs <- err
			}()
		}
		close(start)
		for i := 0; i < readers; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if pulls := rep.Pulls(); pulls != epoch {
			t.Fatalf("epoch %d: %d view transfers after %d readers per epoch, want %d", epoch, pulls, readers, epoch)
		}
	}
}

// TestReplicaStalenessMatrix is the bounded-staleness pin: while a
// publisher commits epochs as fast as it can (base PUT bumping the
// epoch, then the view for that epoch — the engine's phase-1/commit
// rhythm), concurrent replica readers must always observe a view that
// is (a) internally consistent — neighbors, profile, and epoch stamp
// all derived from the same epoch, never torn — and (b) within the
// bounded-staleness window: at least the last epoch committed before
// the read began, at most the last committed after it returned.
func TestReplicaStalenessMatrix(t *testing.T) {
	for _, cfg := range []struct{ shards, parts, readers int }{
		{1, 1, 2},
		{2, 4, 4},
	} {
		t.Run(fmt.Sprintf("shards=%d/parts=%d", cfg.shards, cfg.parts), func(t *testing.T) {
			cluster, client := startCluster(t, cfg.shards, cfg.parts, nil)
			const user = 77
			const home = 0 // the user's partition, on shard 0
			// publishing leads committed: the view of epoch N+1 becomes
			// readable inside PutView, before the publisher can record it
			// as committed, so a reader's upper bound is the epoch the
			// publisher has announced it is working on.
			var committed, publishing atomic.Uint64
			publish := func(epoch uint64) {
				publishing.Store(epoch)
				if err := client.PutBase(home, []byte("base")); err != nil {
					t.Error(err)
					return
				}
				if err := client.PutView(home, viewFor(user, epoch)); err != nil {
					t.Error(err)
					return
				}
				committed.Store(epoch)
			}
			publish(1)
			_, rc := startReplicas(t, cluster, cfg.parts)

			const epochs = 40
			done := make(chan struct{})
			go func() {
				defer close(done)
				for e := uint64(2); e <= epochs; e++ {
					publish(e)
				}
			}()

			var wg sync.WaitGroup
			for reader := 0; reader < cfg.readers; reader++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var last uint64
					for {
						lo := committed.Load()
						epoch, ids, err := rc.Neighbors(user)
						hi := publishing.Load()
						if err != nil {
							t.Error(err)
							return
						}
						// Torn-read check: the payload must be the one
						// derived from the returned epoch.
						want := []uint32{uint32(epoch), uint32(epoch * 2), uint32(epoch * 3)}
						if len(ids) != 3 || ids[0] != want[0] || ids[1] != want[1] || ids[2] != want[2] {
							t.Errorf("epoch %d served neighbors %v, want %v — torn read", epoch, ids, want)
							return
						}
						_, blob, err := rc.ProfileBytes(user)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.HasPrefix(blob, []byte("profile-at-")) {
							t.Errorf("profile payload %q not epoch-derived", blob)
							return
						}
						// Bounded staleness: the lo..hi window brackets the
						// read, so any epoch in it is "N or N+1" fresh. An
						// epoch below lo (committed before the read began)
						// would be over-stale; above hi (not yet being
						// published when the read ended), impossible.
						if epoch < lo || epoch > hi {
							t.Errorf("read returned epoch %d outside committed window [%d,%d]", epoch, lo, hi)
							return
						}
						// Epochs never run backwards for one reader.
						if epoch < last {
							t.Errorf("epoch regressed %d -> %d", last, epoch)
							return
						}
						last = epoch
						if hi >= epochs {
							return
						}
					}
				}()
			}
			wg.Wait()
			<-done
		})
	}
}

// TestReplicaTombstoneStaleness extends the staleness matrix to
// deleted users. A DELUSER tombstone misses immediately on the
// primary — the deleting client must never read its own deleted user
// back — while a replica keeps serving the last *committed* view
// (bounded staleness, same window as any other read) until the
// partition republishes without the user, at which point the next
// lookup self-invalidates and misses there too. A re-add resurrects
// the id on both tiers once a view carries it again.
func TestReplicaTombstoneStaleness(t *testing.T) {
	cluster, client := startCluster(t, 2, 4, nil)
	const user = 77
	const home = 0 // user's partition, on shard 0
	if err := client.PutBase(home, []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutView(home, viewFor(user, 1)); err != nil {
		t.Fatal(err)
	}
	_, rc := startReplicas(t, cluster, 4)
	if _, ids, err := rc.Neighbors(user); err != nil || len(ids) != 3 {
		t.Fatalf("warm replica lookup: ids=%v err=%v", ids, err)
	}

	if err := client.DelUser(user); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Neighbors(user); !errors.Is(err, ErrNotServed) {
		t.Fatalf("primary lookup after DELUSER: err=%v, want ErrNotServed", err)
	}
	// The replica answers from committed views, not journals: until a
	// delta pass republishes the partition, the epoch-1 view is still
	// the freshest committed state and must keep serving.
	if epoch, ids, err := rc.Neighbors(user); err != nil || epoch != 1 || len(ids) != 3 {
		t.Fatalf("replica lookup pre-republish: epoch=%d ids=%v err=%v, want the stale epoch-1 view", epoch, ids, err)
	}

	// The delta pass republishes the partition without the user
	// (PutDeltaView — no base install, the PUT itself bumps the
	// epoch): the replica's next lookup invalidates, pulls, and
	// misses on both read verbs.
	if err := client.PutDeltaView(home, EncodeView(nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Neighbors(user); !errors.Is(err, ErrNotServed) {
		t.Fatalf("replica lookup post-republish: err=%v, want ErrNotServed", err)
	}
	if _, _, err := rc.ProfileBytes(user); !errors.Is(err, ErrNotServed) {
		t.Fatalf("replica profile post-republish: err=%v, want ErrNotServed", err)
	}

	// Re-add resurrects the id: the tombstone clears, and once a view
	// carries the user again both tiers serve it.
	if err := client.AddUser(user, []byte("profile-at-3")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutDeltaView(home, viewFor(user, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ids, err := client.Neighbors(user); err != nil || len(ids) != 3 || ids[0] != 3 {
		t.Fatalf("primary lookup after re-add: ids=%v err=%v", ids, err)
	}
	if _, ids, err := rc.Neighbors(user); err != nil || len(ids) != 3 || ids[0] != 3 {
		t.Fatalf("replica lookup after re-add: ids=%v err=%v", ids, err)
	}
}
