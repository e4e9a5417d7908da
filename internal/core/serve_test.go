package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"knnpc/internal/api"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// TestServingBitIdentical is the serving-tier half of the tentpole
// invariant: turning on view publishing and read replicas must not
// perturb the computation — the graph trajectory stays bit-identical
// to the in-process engine at every (Slots, ExecWorkers, shards)
// setting, because the serving tier only reads committed state.
func TestServingBitIdentical(t *testing.T) {
	const users, iters = 300, 3
	base := Options{K: 6, NumPartitions: 8, TupleBatch: 64, Seed: 13}

	for _, slots := range []int{2, 4} {
		ref := base
		ref.Slots = slots
		_, refGraph := runEngine(t, ref, users, iters)
		for _, workers := range []int{1, 2} {
			for _, shards := range []int{1, 2, 3} {
				name := fmt.Sprintf("slots=%d workers=%d shards=%d", slots, workers, shards)
				opts := base
				opts.Slots = slots
				opts.ExecWorkers = workers
				opts.NetStoreShards = shards
				opts.PublishViews = true
				opts.NetStoreReplicas = true
				_, gotGraph := runEngine(t, opts, users, iters)
				if refGraph.DiffEdges(gotGraph) != 0 {
					t.Fatalf("%s: serving tier changed the KNN graph", name)
				}
			}
		}
	}
}

// TestQueriesDuringIterate hammers the engine's query methods from
// concurrent goroutines while iterations run, pinning that (a) they
// never race with the five phases (the -race build is the real
// assertion), (b) the epoch only moves forward, and (c) a result
// carries the state of the epoch it is stamped with — after iteration
// t commits, lookups must reflect G(t+1).
func TestQueriesDuringIterate(t *testing.T) {
	const users = 250
	store := testStore(t, users, 42)
	eng, err := New(store, Options{K: 5, NumPartitions: 6, ExecWorkers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := uint32((i + r*83) % users)
				ids, epoch, err := eng.QueryNeighbors(u)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ids) == 0 {
					t.Errorf("user %d has no neighbors at epoch %d", u, epoch)
					return
				}
				if epoch < last {
					t.Errorf("epoch regressed %d -> %d", last, epoch)
					return
				}
				last = epoch
				if _, pepoch, err := eng.QueryProfile(u); err != nil || pepoch < last {
					t.Errorf("profile query: epoch %d err %v", pepoch, err)
					return
				}
			}
		}(r)
	}

	const iters = 3
	for i := 0; i < iters; i++ {
		if _, err := eng.Iterate(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := eng.Epoch(); got != iters {
		t.Fatalf("epoch %d after %d iterations", got, iters)
	}
	// Post-run queries return the committed graph exactly.
	ids, epoch, err := eng.QueryNeighbors(7)
	if err != nil || epoch != iters {
		t.Fatalf("final query: epoch %d, %v", epoch, err)
	}
	want := eng.Graph().Neighbors(7)
	if len(ids) != len(want) {
		t.Fatalf("query returned %v, graph has %v", ids, want)
	}
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("query returned %v, graph has %v", ids, want)
		}
	}
	if _, _, err := eng.QueryNeighbors(uint32(users)); err == nil {
		t.Fatal("out-of-range user answered")
	}
}

// TestServeViewsPublished: with PublishViews on, after an iteration
// every user is answerable through the store's point-lookup path and
// through a replica, and the answers match the engine's own committed
// state.
func TestServeViewsPublished(t *testing.T) {
	const users = 200
	store := testStore(t, users, 42)
	eng, err := New(store, Options{
		K: 5, NumPartitions: 6, NetStoreShards: 2,
		PublishViews: true, NetStoreReplicas: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"primary", eng.StoreAddrs()},
		{"replica", eng.ReplicaAddrs()},
	} {
		client, err := netstore.Dial(tc.addrs, 6)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for u := uint32(0); u < users; u += 17 {
			epoch, ids, err := client.Neighbors(u)
			if err != nil {
				t.Fatalf("%s neighbors(%d): %v", tc.name, u, err)
			}
			if epoch == 0 {
				t.Fatalf("%s neighbors(%d): unstamped view", tc.name, u)
			}
			want, _, err := eng.QueryNeighbors(u)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(want) {
				t.Fatalf("%s neighbors(%d) = %v, engine has %v", tc.name, u, ids, want)
			}
			for i := range ids {
				if ids[i] != want[i] {
					t.Fatalf("%s neighbors(%d) = %v, engine has %v", tc.name, u, ids, want)
				}
			}
			_, blob, err := client.ProfileBytes(u)
			if err != nil {
				t.Fatalf("%s profile(%d): %v", tc.name, u, err)
			}
			vec, rest, err := profile.DecodeVector(blob)
			if err != nil || len(rest) != 0 {
				t.Fatalf("%s profile(%d): bad encoding (%v, %d trailing)", tc.name, u, err, len(rest))
			}
			wantVec, _, err := eng.QueryProfile(u)
			if err != nil {
				t.Fatal(err)
			}
			if len(vec.Entries()) != len(wantVec.Entries()) {
				t.Fatalf("%s profile(%d): %d entries, engine has %d", tc.name, u, len(vec.Entries()), len(wantVec.Entries()))
			}
		}
	}
}

// TestPublishNeverUnservesALiveUser: a full commit PUTs its views one
// partition at a time, so while it runs the store serves the new views
// of partitions 0..k−1 beside the previously published views of k..m−1.
// At every such prefix every live user must be in some served view —
// including users who moved to a partition published later than the
// one they left, which the new membership alone would drop until the
// later PUT lands. Membership is random per trial; the previously
// served membership includes delta-placed users.
func TestPublishNeverUnservesALiveUser(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(7)
		n := 10 + rng.Intn(50)
		assign := func() (parts [][]uint32, of []int) {
			parts, of = make([][]uint32, m), make([]int, n)
			for u := 0; u < n; u++ {
				of[u] = rng.Intn(m)
				parts[of[u]] = append(parts[of[u]], uint32(u))
			}
			return parts, of
		}
		served, _ := assign()
		next, of := assign()
		partOf := func(u uint32) int { return of[u] }

		if got := publishMembers(next, nil, partOf); fmt.Sprint(got) != fmt.Sprint(next) {
			t.Fatalf("trial %d: first publish carries %v, want exactly %v", trial, got, next)
		}
		members := publishMembers(next, served, partOf)
		for k := 0; k <= m; k++ {
			visible := make(map[uint32]bool)
			for p := 0; p < m; p++ {
				view := served[p]
				if p < k {
					view = members[p]
				}
				for _, u := range view {
					visible[u] = true
				}
			}
			for u := uint32(0); int(u) < n; u++ {
				if !visible[u] {
					t.Fatalf("trial %d (m=%d): user %d (partition %d) is in no served view after publishing %d of %d views",
						trial, m, u, of[u], k, m)
				}
			}
		}
		// A view only ever adds users it already served and who have
		// not been published yet.
		for p := range members {
			extra := members[p][len(next[p]):]
			if fmt.Sprint(members[p][:len(next[p])]) != fmt.Sprint(next[p]) {
				t.Fatalf("trial %d: view %d = %v does not start with its members %v", trial, p, members[p], next[p])
			}
			was := make(map[uint32]bool)
			for _, u := range served[p] {
				was[u] = true
			}
			for _, u := range extra {
				if !was[u] {
					t.Fatalf("trial %d: view %d carries user %d, which it never served", trial, p, u)
				}
				if of[u] <= p {
					t.Fatalf("trial %d: view %d carries user %d, already published in view %d", trial, p, u, of[u])
				}
			}
		}
	}
}

// TestDeltaCommitDropsCarriedCopies: a full commit keeps a user who
// moved from partition A to a later partition B in A's view too (see
// publishMembers). With A on shard 0 and B on shard 1, a lookup's
// scatter reaches A's copy first, so the next delta commit must drop
// it: after an upsert every reader sees the new profile, and after a
// delete every reader misses — on primaries and replicas alike.
func TestDeltaCommitDropsCarriedCopies(t *testing.T) {
	const users, parts = 200, 6
	eng, err := New(testStore(t, users, 42), Options{
		K: 5, NumPartitions: parts, NetStoreShards: 2,
		PublishViews: true, NetStoreReplicas: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Iterate(ctx); err != nil {
		t.Fatal(err)
	}
	// Shard 0 owns partitions [0, parts/2), shard 1 the rest.
	moved := -1
	for iter := 0; iter < 5 && moved < 0; iter++ {
		before := make([]int, users)
		for u := range before {
			before[u] = eng.partitionOfUser(uint32(u))
		}
		if _, err := eng.Iterate(ctx); err != nil {
			t.Fatal(err)
		}
		for u, a := range before {
			if a < parts/2 && eng.partitionOfUser(uint32(u)) >= parts/2 {
				moved = u
				break
			}
		}
	}
	if moved < 0 {
		t.Fatal("no user moved from a shard-0 partition to a shard-1 partition")
	}
	u := uint32(moved)

	front, err := netstore.Dial(eng.StoreAddrs(), parts)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	// check reads u through fresh clients (no routing hints) on both
	// tiers: want is the profile every reader must see, nil a miss.
	check := func(stage string, want []byte) {
		t.Helper()
		for _, tier := range []struct {
			name  string
			addrs []string
		}{
			{"primary", eng.StoreAddrs()},
			{"replica", eng.ReplicaAddrs()},
		} {
			c, err := netstore.Dial(tier.addrs, parts)
			if err != nil {
				t.Fatal(err)
			}
			_, blob, err := c.ProfileBytes(u)
			c.Close()
			switch {
			case want == nil && err == nil:
				t.Fatalf("%s: %s still serves user %d", stage, tier.name, u)
			case want != nil && err != nil:
				t.Fatalf("%s: %s: %v", stage, tier.name, err)
			case want != nil && !bytes.Equal(blob, want):
				t.Fatalf("%s: %s serves a stale profile for user %d", stage, tier.name, u)
			}
		}
	}

	vec, err := profile.NewVector([]profile.Entry{{Item: 11, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.AddUser(u, vec.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	check("after upsert", vec.AppendBinary(nil))

	if err := front.DelUser(u); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	check("after delete", nil)
}

// TestRemoteUpdatesDrained: updates pushed through the store's PUSHUPD
// path (knnserve's POST ingestion) are applied by the next phase 5,
// exactly like locally enqueued ones.
func TestRemoteUpdatesDrained(t *testing.T) {
	const users = 150
	store := testStore(t, users, 42)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 4, NetStoreShards: 2,
		PublishViews: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	client, err := netstore.Dial(eng.StoreAddrs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.PushUpdates([]profile.Update{
		{User: 3, Kind: profile.SetItem, Item: 4242, Weight: 7.5},
		{User: 9, Kind: profile.SetItem, Item: 4242, Weight: 1},
		{User: 9, Kind: profile.RemoveItem, Item: 4242},
	}); err != nil {
		t.Fatal(err)
	}
	// Not visible before phase 5 (the lazy-update contract).
	if vec, _, _ := eng.QueryProfile(3); weightOf(vec, 4242) != 0 {
		t.Fatal("pushed update visible before phase 5")
	}
	stats, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.UpdatesApplied != 3 {
		t.Fatalf("%d updates applied, want 3", stats.UpdatesApplied)
	}
	if vec, _, _ := eng.QueryProfile(3); weightOf(vec, 4242) != 7.5 {
		t.Fatalf("user 3 weight %v after drain, want 7.5", weightOf(vec, 4242))
	}
	if vec, _, _ := eng.QueryProfile(9); weightOf(vec, 4242) != 0 {
		t.Fatal("user 9's set+remove pair did not cancel — per-user order broken")
	}
	// And the published view reflects the post-update profile.
	_, blob, err := client.ProfileBytes(3)
	if err != nil {
		t.Fatal(err)
	}
	vec, _, err := profile.DecodeVector(blob)
	if err != nil {
		t.Fatal(err)
	}
	if weightOf(vec, 4242) != 7.5 {
		t.Fatalf("published view has weight %v, want 7.5", weightOf(vec, 4242))
	}
}

// weightOf reads one item weight, 0 when absent.
func weightOf(v profile.Vector, item uint32) float32 {
	w, _ := v.Weight(item)
	return w
}

// TestQueryBeforeFirstIterate: epoch 0 queries answer from the seed
// graph and P(0) — the serving tier is live from construction.
func TestQueryBeforeFirstIterate(t *testing.T) {
	store := testStore(t, 50, 2)
	eng, err := New(store, Options{K: 3, NumPartitions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ids, epoch, err := eng.QueryNeighbors(5)
	if err != nil || epoch != 0 || len(ids) != 3 {
		t.Fatalf("seed query: ids=%v epoch=%d err=%v", ids, epoch, err)
	}
	if _, _, err := eng.QueryProfile(5); err != nil {
		t.Fatal(err)
	}
}

// viewsDigest hashes every partition's stored serve view, in partition
// order — the exact bytes primaries hand to replicas and lookups.
func viewsDigest(t *testing.T, c *netstore.Client, parts int) string {
	t.Helper()
	h := sha256.New()
	for p := 0; p < parts; p++ {
		_, blob, err := c.GetView(uint32(p))
		if err != nil {
			t.Fatalf("GetView(%d): %v", p, err)
		}
		fmt.Fprintf(h, "%d:", len(blob))
		h.Write(blob)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestDeltaViewsRepublished drives the full online-mutation loop over
// the store fleet: a front end pushes ADDUSER/DELUSER, ApplyDeltas
// drains them, commits, and republishes only the affected partitions'
// views — so primaries and replicas serve the added user and miss the
// deleted one, and the staleness document is retrievable.
func TestDeltaViewsRepublished(t *testing.T) {
	const users = 200
	store := testStore(t, users, 42)
	eng, err := New(store, Options{
		K: 5, NumPartitions: 6, NetStoreShards: 2,
		PublishViews: true, NetStoreReplicas: true, Seed: 3,
		StalenessThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	front, err := netstore.Dial(eng.StoreAddrs(), 6)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	// The published bytes are pinned: both publish paths share one
	// encoder, and these digests were taken when each still had its own.
	if got, want := viewsDigest(t, front, 6), "e1a97ae4cc6a2a78"; got != want {
		t.Errorf("full-iteration views digest %s, want %s", got, want)
	}
	vec, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.AddUser(users, vec.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if err := front.DelUser(5); err != nil {
		t.Fatal(err)
	}

	ds, err := eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Adds != 1 || ds.Deletes != 1 {
		t.Fatalf("remote mutations landed as %+v", ds)
	}
	if ds.Republished == 0 {
		t.Fatal("no partition views republished after the delta commit")
	}
	if got, want := viewsDigest(t, front, 6), "fb6bc8e06182cbed"; got != want {
		t.Errorf("delta-commit views digest %s, want %s", got, want)
	}

	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"primary", eng.StoreAddrs()},
		{"replica", eng.ReplicaAddrs()},
	} {
		client, err := netstore.Dial(tc.addrs, 6)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, ids, err := client.Neighbors(users); err != nil || len(ids) == 0 {
			t.Fatalf("%s: added user not served: ids=%v err=%v", tc.name, ids, err)
		}
		if _, _, err := client.Neighbors(5); err == nil {
			t.Fatalf("%s: deleted user still served", tc.name)
		}
	}

	doc, ok, err := front.Staleness()
	if err != nil || !ok {
		t.Fatalf("staleness doc missing: ok=%v err=%v", ok, err)
	}
	if doc.Threshold != 0.5 || len(doc.Partitions) == 0 {
		t.Fatalf("staleness doc %+v", doc)
	}
	var adds, deletes uint64
	for _, p := range doc.Partitions {
		adds += p.Adds
		deletes += p.Deletes
	}
	if adds != 1 || deletes != 1 {
		t.Fatalf("staleness rows count %d adds / %d deletes, want 1/1", adds, deletes)
	}
	if doc.Users != uint64(users+1) {
		t.Fatalf("staleness doc advertises %d users, want %d", doc.Users, users+1)
	}

	// A full iteration resets the published document.
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	doc, ok, err = front.Staleness()
	if err != nil || !ok {
		t.Fatal("staleness doc gone after full iteration")
	}
	for _, p := range doc.Partitions {
		if p.Adds != 0 || p.Deletes != 0 || p.Score != 0 {
			t.Fatalf("staleness not reset after full iteration: %+v", p)
		}
	}

	// An upsert of an existing user must republish the user's OWN
	// committed partition (not just its neighbors'): the fresh profile
	// is served from primaries and replicas, and the staleness row
	// attributes the churn to that partition.
	const target = 7
	vec2, err := profile.NewVector([]profile.Entry{{Item: 9, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.AddUser(target, vec2.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	ds, err = eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Upserts != 1 || ds.Republished == 0 {
		t.Fatalf("upsert pass reported %+v", ds)
	}
	own := eng.partitionOfUser(target)
	if own < 0 {
		t.Fatalf("upserted user %d has no committed partition", target)
	}
	doc, ok, err = front.Staleness()
	if err != nil || !ok {
		t.Fatalf("staleness doc missing after upsert: ok=%v err=%v", ok, err)
	}
	var row *api.PartitionStaleness
	for i := range doc.Partitions {
		if doc.Partitions[i].Partition == uint32(own) {
			row = &doc.Partitions[i]
		}
	}
	if row == nil || row.Adds != 1 {
		t.Fatalf("upsert churn not attributed to own partition %d: %+v", own, doc.Partitions)
	}
	want := vec2.AppendBinary(nil)
	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"primary", eng.StoreAddrs()},
		{"replica", eng.ReplicaAddrs()},
	} {
		client, err := netstore.Dial(tc.addrs, 6)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		_, blob, err := client.ProfileBytes(target)
		if err != nil {
			t.Fatalf("%s: upserted profile not served: %v", tc.name, err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("%s: serves a stale profile for upserted user %d", tc.name, target)
		}
	}
}

// TestDeltaMalformedPayloadSkipped: a front end can journal arbitrary
// bytes as an ADDUSER payload (the PUT path accepts the body with a
// 202 before the engine ever sees it). An undecodable payload must not
// wedge the delta path — it is dropped and counted, and every
// well-formed mutation in the same drain still lands.
func TestDeltaMalformedPayloadSkipped(t *testing.T) {
	const users = 60
	store := testStore(t, users, 9)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 3, NetStoreShards: 2,
		PublishViews: true, Seed: 5, StalenessThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	front, err := netstore.Dial(eng.StoreAddrs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	if err := front.AddUser(users, []byte{0xff, 0x01}); err != nil {
		t.Fatal(err)
	}
	vec, err := profile.NewVector([]profile.Entry{{Item: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.AddUser(users, vec.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}

	ds, err := eng.ApplyDeltas()
	if err != nil {
		t.Fatalf("malformed payload wedged the pass: %v", err)
	}
	if ds.Malformed != 1 || ds.Adds != 1 {
		t.Fatalf("pass reported %+v, want 1 malformed / 1 add", ds)
	}
	if _, _, err := eng.QueryNeighbors(users); err != nil {
		t.Fatalf("well-formed add did not land: %v", err)
	}

	// The dropped payload is gone for good: the next pass is a strict
	// no-op, not a retry loop.
	ds, err = eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if *ds != (DeltaStats{}) {
		t.Fatalf("follow-up pass reported %+v, want all-zero", ds)
	}
}
