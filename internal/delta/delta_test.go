package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"knnpc/internal/graph"
	"knnpc/internal/profile"
)

// fixture builds a random graph plus clustered profiles so greedy
// search has structure to exploit.
func fixture(t *testing.T, n, k int) (*graph.KNN, *profile.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := graph.RandomKNN(n, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]profile.Vector, n)
	for u := 0; u < n; u++ {
		cluster := u % 4
		entries := []profile.Entry{
			{Item: uint32(cluster*100 + rng.Intn(10)), Weight: 1 + rng.Float32()},
			{Item: uint32(cluster*100 + 10 + rng.Intn(10)), Weight: 1 + rng.Float32()},
			{Item: uint32(1000 + rng.Intn(50)), Weight: rng.Float32()},
		}
		v, err := profile.NewVector(entries)
		if err != nil {
			t.Fatal(err)
		}
		vecs[u] = v
	}
	return g, profile.NewStoreFromVectors(vecs)
}

func lookup(store *profile.Store) func(uint32) (profile.Vector, error) {
	return func(u uint32) (profile.Vector, error) { return store.Get(u), nil }
}

func TestInsertDeterministicAndBounded(t *testing.T) {
	const n, k = 120, 6
	g, store := fixture(t, n, k)
	vec, err := profile.NewVector([]profile.Entry{{Item: 105, Weight: 2}, {Item: 115, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: k, Sim: profile.Cosine{}}

	g1 := g.Clone()
	g1.Grow(1)
	r1, err := Insert(g1, lookup(store), cfg, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Neighbors) == 0 || len(r1.Neighbors) > k {
		t.Fatalf("got %d neighbors, want 1..%d", len(r1.Neighbors), k)
	}
	if got := g1.Neighbors(n); !reflect.DeepEqual(got, r1.Neighbors) {
		t.Fatalf("graph list %v != result %v", got, r1.Neighbors)
	}
	if r1.SimEvals <= 0 || r1.SimEvals >= n*k {
		t.Fatalf("sim evals %d outside (0, n·K=%d) — insertion should beat a full pass", r1.SimEvals, n*k)
	}

	g2 := g.Clone()
	g2.Grow(1)
	r2, err := Insert(g2, lookup(store), cfg, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("insert not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestInsertPartitionRestriction(t *testing.T) {
	const n, k = 120, 6
	g, store := fixture(t, n, k)
	vec, err := profile.NewVector([]profile.Entry{{Item: 205, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	partOf := func(u uint32) int { return int(u) % 8 }
	g1 := g.Clone()
	g1.Grow(1)
	r, err := Insert(g1, lookup(store), Config{K: k, Sim: profile.Cosine{}, PartitionOf: partOf}, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	// Unrestricted pool for the same insert must be at least as large.
	g2 := g.Clone()
	g2.Grow(1)
	full, err := Insert(g2, lookup(store), Config{K: k, Sim: profile.Cosine{}}, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Candidates > full.Candidates {
		t.Fatalf("restricted pool %d > unrestricted %d", r.Candidates, full.Candidates)
	}
	if len(r.Neighbors) == 0 {
		t.Fatal("restricted insert found no neighbors")
	}
}

func TestInsertSkipsDead(t *testing.T) {
	const n, k = 60, 4
	g, store := fixture(t, n, k)
	vec := store.Get(3) // clone of an existing profile: user 3 would top the list
	dead := map[uint32]bool{3: true}
	g.Grow(1)
	r, err := Insert(g, lookup(store), Config{K: k, Sim: profile.Cosine{}, Dead: func(u uint32) bool { return dead[u] }}, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Neighbors {
		if dead[v] {
			t.Fatalf("tombstoned user %d chosen as neighbor", v)
		}
	}
}

func TestRemoveStripsEverywhere(t *testing.T) {
	const n, k = 80, 5
	g, _ := fixture(t, n, k)
	const victim = 17
	touched, err := Remove(g, victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Neighbors(victim)) != 0 {
		t.Fatalf("victim still has %d out-edges", len(g.Neighbors(victim)))
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if v == victim {
				t.Fatalf("user %d still links to removed %d", u, victim)
			}
		}
	}
	for _, v := range touched {
		if len(g.Neighbors(v)) >= k {
			t.Fatalf("touched user %d still has a full list", v)
		}
	}
}

func TestTrackerScores(t *testing.T) {
	tr := NewTracker(10)
	if got := tr.MaxScore(); got != 0 {
		t.Fatalf("empty tracker MaxScore = %g", got)
	}
	tr.ResetFull([]int{100, 50}, 3)
	if got := tr.LastFullEpoch(); got != 3 {
		t.Fatalf("LastFullEpoch = %d", got)
	}
	tr.RecordAdd(0, 20)   // 1 add + 20/10 touched over 100 members = 0.03
	tr.RecordDelete(1, 0) // 1 delete over 50 members = 0.02
	if got, want := tr.Score(0), 0.03; got != want {
		t.Fatalf("Score(0) = %g, want %g", got, want)
	}
	if got, want := tr.Score(1), 0.02; got != want {
		t.Fatalf("Score(1) = %g, want %g", got, want)
	}
	if got, want := tr.MaxScore(), 0.03; got != want {
		t.Fatalf("MaxScore = %g, want %g", got, want)
	}
	// Out-of-range partitions grow rather than panic.
	tr.RecordAdd(5, 0)
	snap := tr.Snapshot()
	if len(snap) != 6 || snap[5].Adds != 1 || snap[0].Members != 100 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	tr.ResetFull([]int{10}, 4)
	if tr.MaxScore() != 0 || len(tr.Snapshot()) != 1 {
		t.Fatal("ResetFull did not clear counters")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	q.Enqueue(Mutation{Op: Add, User: 1})
	q.Enqueue(Mutation{Op: Delete, User: 2})
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.Drain()
	if len(got) != 2 || got[0].User != 1 || got[1].Op != Delete {
		t.Fatalf("drained %+v", got)
	}
	if q.Len() != 0 || len(q.Drain()) != 0 {
		t.Fatal("queue not empty after drain")
	}
}

// randomCase builds a seeded random graph with bound k over n users
// and weighted profiles drawn from a small item universe (some empty),
// so candidates share items and scores tie.
func randomCase(t *testing.T, rng *rand.Rand, n, k int) (*graph.KNN, []profile.Vector) {
	t.Helper()
	g, err := graph.RandomKNN(n, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]profile.Vector, n+8)
	for u := range vecs {
		entries := make([]profile.Entry, 0, 12)
		for range rng.Intn(12) {
			item := uint32(rng.Intn(40))
			if slices.ContainsFunc(entries, func(e profile.Entry) bool { return e.Item == item }) {
				continue
			}
			entries = append(entries, profile.Entry{Item: item, Weight: float32(1 + rng.Intn(4))})
		}
		v, err := profile.NewVector(entries)
		if err != nil {
			t.Fatal(err)
		}
		vecs[u] = v
	}
	return g, vecs
}

func sameGraph(a, b *graph.KNN) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		if !slices.Equal(a.Neighbors(uint32(u)), b.Neighbors(uint32(u))) {
			return false
		}
	}
	return true
}

// TestInsertMatchesReference holds Insert to the map-based inserter it
// replaced: for every measure, with and without the partition filter
// and tombstones, at K ∈ {1, 5, 10}, a sequence of adds and upserts
// must return the same neighbors, touched users, pool size and
// similarity-evaluation count, and leave the same graph.
func TestInsertMatchesReference(t *testing.T) {
	sims := []profile.Similarity{profile.Cosine{}, profile.Jaccard{}, profile.Dice{}, profile.Overlap{}}
	for seed := int64(1); seed <= 4; seed++ {
		for _, sim := range sims {
			for _, k := range []int{1, 5, 10} {
				for _, restrict := range []bool{false, true} {
					for _, tombs := range []bool{false, true} {
						name := fmt.Sprintf("seed%d/%s/K%d/restrict=%v/tombstones=%v", seed, sim.Name(), k, restrict, tombs)
						rng := rand.New(rand.NewSource(seed))
						n := 30 + rng.Intn(120)
						g, vecs := randomCase(t, rng, n, k)
						profiles := func(u uint32) (profile.Vector, error) { return vecs[u], nil }
						cfg := Config{K: k, Sim: sim}
						if restrict {
							cfg.PartitionOf = func(u uint32) int {
								if u%7 == 3 {
									return -1
								}
								return int(u*2654435761>>28) % 5
							}
						}
						if tombs {
							dead := make(map[uint32]bool)
							for range n / 8 {
								dead[uint32(rng.Intn(n))] = true
							}
							cfg.Dead = func(u uint32) bool { return dead[u] }
						}
						want := g.Clone()
						for i := 0; i < 8; i++ {
							u := uint32(g.NumNodes())
							if i%3 == 2 {
								u = uint32(rng.Intn(n)) // upsert
							} else {
								g.Grow(1)
								want.Grow(1)
							}
							vec := vecs[rng.Intn(len(vecs))]
							got, err := Insert(g, profiles, cfg, u, vec)
							if err != nil {
								t.Fatal(err)
							}
							ref, err := refInsert(want, profiles, cfg, u, vec)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(got.Neighbors, ref.Neighbors) || !slices.Equal(got.Touched, ref.Touched) ||
								got.Candidates != ref.Candidates || got.SimEvals != ref.SimEvals {
								t.Fatalf("%s insert %d of user %d: got %+v, want %+v", name, i, u, got, ref)
							}
							if !sameGraph(g, want) {
								t.Fatalf("%s insert %d of user %d: graphs differ", name, i, u)
							}
						}
					}
				}
			}
		}
	}
}

// TestRemoveRunMatchesSequentialRemove holds the one-scan strip of a
// run of deletes to sequential one-user strips: the same touched list
// per member and the same graph, for random runs with repeats and
// out-of-range ids and for the two orderings of a member pair that
// lists one another.
func TestRemoveRunMatchesSequentialRemove(t *testing.T) {
	check := func(t *testing.T, g *graph.KNN, run []uint32) [][]uint32 {
		t.Helper()
		want := g.Clone()
		var wantTouched [][]uint32
		for _, u := range run {
			touched, err := refRemove(want, u)
			if err != nil {
				t.Fatal(err)
			}
			wantTouched = append(wantTouched, touched)
		}
		got, err := RemoveRun(g, run)
		if err != nil {
			t.Fatal(err)
		}
		for i := range run {
			if !slices.Equal(got[i], wantTouched[i]) {
				t.Fatalf("run %v member %d (%d): touched %v, want %v", run, i, run[i], got[i], wantTouched[i])
			}
		}
		if !sameGraph(g, want) {
			t.Fatalf("run %v: graphs differ", run)
		}
		return got
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		g, _ := randomCase(t, rng, n, 1+rng.Intn(10))
		for range 5 {
			run := make([]uint32, 1+rng.Intn(12))
			for i := range run {
				run[i] = uint32(rng.Intn(n + 2)) // n, n+1: idempotent misses
			}
			if len(run) > 2 {
				run[len(run)-1] = run[0] // a repeated delete
			}
			check(t, g, run)
		}
	}

	// a lists b. Stripping a then b: b's strip finds a already emptied,
	// so a is not in b's touched list. Stripping b then a: a's list
	// still holds b when b's strip runs.
	rng := rand.New(rand.NewSource(99))
	g, _ := randomCase(t, rng, 60, 5)
	a := uint32(7)
	b := g.Neighbors(a)[0]
	if got := check(t, g.Clone(), []uint32{a, b}); slices.Contains(got[1], a) {
		t.Fatalf("earlier member %d in later member %d's touched list %v", a, b, got[1])
	}
	if got := check(t, g.Clone(), []uint32{b, a}); !slices.Contains(got[0], a) {
		t.Fatalf("later member %d missing from earlier member %d's touched list %v", a, b, got[0])
	}

	// Remove is the one-user run.
	want := g.Clone()
	ref, err := refRemove(want, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Remove(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ref) || !sameGraph(g, want) {
		t.Fatalf("Remove(%d) = %v, want %v", a, got, ref)
	}
}
