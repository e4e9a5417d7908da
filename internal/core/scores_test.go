package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"knnpc/internal/dataset"
	"knnpc/internal/graph"
	"knnpc/internal/profile"
)

// requireScoresTrue checks the engine's score invariant: every row of
// the committed graph holds its scores (none holds ids alone once an
// iteration has run), every score is Similarity.Score of the two
// committed profiles bit for bit, and tombstoned users' rows are empty.
func requireScoresTrue(t *testing.T, eng *Engine, when string) {
	t.Helper()
	scored := 0
	for u := uint32(0); int(u) < eng.g.NumNodes(); u++ {
		nbrs, scores := eng.g.Neighbors(u), eng.g.Scores(u)
		if eng.dead.Has(u) && len(nbrs) > 0 {
			t.Fatalf("%s: tombstoned user %d lists %v", when, u, nbrs)
		}
		if len(nbrs) == 0 {
			continue
		}
		if scores == nil {
			t.Fatalf("%s: user %d's row %v holds no scores", when, u, nbrs)
		}
		pu, err := eng.profiles.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range nbrs {
			pv, err := eng.profiles.Profile(v)
			if err != nil {
				t.Fatal(err)
			}
			if want := eng.opts.Similarity.Score(pu, pv); math.Float64bits(scores[i]) != math.Float64bits(want) {
				t.Fatalf("%s: edge %d→%d holds score %v, the committed profiles score %v", when, u, v, scores[i], want)
			}
		}
		scored++
	}
	if scored == 0 {
		t.Fatalf("%s: no row holds scores", when)
	}
}

// TestStoredScoresStayTrue runs a seeded script through every writer of
// G(t) and checks the score invariant after each commit: full
// iterations whose phase 5 applies SetItem, RemoveItem and
// ReplaceProfile updates; delta passes of adds, deletes, upserts and
// resurrections; and one pass whose commit fails and is retried. It runs
// on the in-process and the network store.
func TestStoredScoresStayTrue(t *testing.T) {
	const base, pool, k, items = 160, 60, 5, 700
	vecs, _, err := dataset.RatingsProfiles(base+pool, items, 16, 4, 29)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := Options{K: k, NumPartitions: 4, TupleBatch: 64, Seed: 3, NetStoreShards: shards}
			eng, err := New(profile.NewStoreFromVectors(slices.Clone(vecs[:base])), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(17))
			iterate := func(when string) {
				n := eng.g.NumNodes()
				for range 10 {
					eng.EnqueueUpdate(profile.Update{
						User: uint32(rng.Intn(n)), Kind: profile.SetItem,
						Item: uint32(rng.Intn(items)), Weight: float32(1 + rng.Intn(5)),
					})
				}
				u := uint32(rng.Intn(n))
				pu, err := eng.profiles.Profile(u)
				if err != nil {
					t.Fatal(err)
				}
				if e := pu.Entries(); len(e) > 0 {
					eng.EnqueueUpdate(profile.Update{User: u, Kind: profile.RemoveItem, Item: e[0].Item})
				}
				eng.EnqueueUpdate(profile.Update{User: uint32(rng.Intn(n)), Kind: profile.ReplaceProfile, Vector: vecs[rng.Intn(len(vecs))]})
				if _, err := eng.Iterate(ctx); err != nil {
					t.Fatal(err)
				}
				requireScoresTrue(t, eng, when)
			}
			for i := range 3 {
				iterate(fmt.Sprintf("iteration %d", i))
			}

			next := uint32(base)
			pass := func(when string) {
				n := eng.g.NumNodes()
				for range 3 {
					eng.EnqueueAddUser(next, vecs[next])
					next++
				}
				for range 2 {
					eng.EnqueueDelUser(uint32(rng.Intn(n)))
				}
				// An upsert of a live user, and a resurrection of the
				// lowest tombstoned one.
				eng.EnqueueAddUser(uint32(rng.Intn(n)), vecs[rng.Intn(len(vecs))])
				for v := uint32(0); int(v) < n; v++ {
					if eng.dead.Has(v) {
						eng.EnqueueAddUser(v, vecs[rng.Intn(len(vecs))])
						break
					}
				}
				if _, err := eng.ApplyDeltas(); err != nil {
					t.Fatal(err)
				}
				requireScoresTrue(t, eng, when)
			}
			for i := range 6 {
				pass(fmt.Sprintf("delta pass %d", i))
			}
			iterate("iteration after the delta passes")

			// A pass whose commit fails leaves the committed graph as it
			// was, and its retry commits it.
			eng.profiles = &failOnceProfiles{canonicalProfiles: eng.profiles}
			eng.EnqueueAddUser(7, vecs[next])
			eng.EnqueueAddUser(next, vecs[next+1])
			next++
			if _, err := eng.ApplyDeltas(); err == nil {
				t.Fatal("the injected Apply failure did not surface")
			}
			requireScoresTrue(t, eng, "failed pass")
			pass("retried pass")
		})
	}
}

// TestEmitScoredRowsAtFourWorkers: with four execution workers and
// async write-back, final releases emit scored rows concurrently into
// one graph's slabs; the rows and every score bit must equal the serial
// engine's, on both partition stores. Under -race (make race-phase4)
// this is the test of the slab writes.
func TestEmitScoredRowsAtFourWorkers(t *testing.T) {
	const users, iters = 200, 2
	base := Options{K: 5, NumPartitions: 8, TupleBatch: 64, Seed: 23}
	_, ref := runEngine(t, base, users, iters)
	for _, shards := range []int{0, 2} {
		opts := base
		opts.Slots, opts.ExecWorkers, opts.NetStoreShards = 4, 4, shards
		opts.AsyncWriteback, opts.PrefetchDepth = true, 2
		_, g := runEngine(t, opts, users, iters)
		if err := sameScoredRows(ref, g); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

// sameScoredRows reports the first row in which a and b differ, in ids
// or in score bits.
func sameScoredRows(a, b *graph.KNN) error {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("%d nodes against %d", a.NumNodes(), b.NumNodes())
	}
	for u := uint32(0); int(u) < a.NumNodes(); u++ {
		sa, sb := a.Scores(u), b.Scores(u)
		if !slices.Equal(a.Neighbors(u), b.Neighbors(u)) || len(sa) != len(sb) {
			return fmt.Errorf("user %d: row %v %v against %v %v", u, a.Neighbors(u), sa, b.Neighbors(u), sb)
		}
		for i := range sa {
			if math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
				return fmt.Errorf("user %d: scores %v against %v", u, sa, sb)
			}
		}
	}
	return nil
}
