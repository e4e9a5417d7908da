package delta

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"knnpc/internal/exact"
	"knnpc/internal/graph"
	"knnpc/internal/profile"
)

// fixture builds a random graph plus clustered profiles.
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

// exactRow is exact.Compute's row for u over the users live reports,
// in the ids of vecs: the live users are renumbered densely in id
// order, which keeps exact.Compute's tie to the smaller id.
func exactRow(t *testing.T, vecs []profile.Vector, live func(uint32) bool, k int, sim profile.Similarity, u uint32) []uint32 {
	t.Helper()
	var ids []uint32
	var sub []profile.Vector
	at := -1
	for v := range vecs {
		if !live(uint32(v)) {
			continue
		}
		if uint32(v) == u {
			at = len(ids)
		}
		ids = append(ids, uint32(v))
		sub = append(sub, vecs[v])
	}
	want, err := exact.Compute(profile.NewStoreFromVectors(sub), exact.Options{K: k, Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	var row []uint32
	for _, v := range want.Neighbors(uint32(at)) {
		row = append(row, ids[v])
	}
	return row
}

// TestInsertMatchesExact holds Insert to exact.Compute and its two
// paths to each other. For every measure, at K ∈ {1, 5, 16}, a seeded
// script of adds, upserts, resurrections of tombstoned users and
// deletes runs on two copies of one graph, one inserting through an
// Index kept on the live profiles and one scoring every live user.
// Each inserted user's row must be exact.Compute's row over the live
// users — including users that share an item with fewer than K others,
// empty profiles among them, and users whose overlaps all score below
// 0, whose rows are filled at score 0 — and both copies must return the
// same result and leave the same graph.
func TestInsertMatchesExact(t *testing.T) {
	sims := []profile.Similarity{profile.Cosine{}, profile.Jaccard{}, profile.Dice{}, profile.Overlap{}}
	for seed := int64(1); seed <= 4; seed++ {
		for _, sim := range sims {
			for _, k := range []int{1, 5, 16} {
				name := fmt.Sprintf("seed%d/%s/K%d", seed, sim.Name(), k)
				rng := rand.New(rand.NewSource(seed))
				n := 30 + rng.Intn(90)
				scan, pool := randomCase(t, rng, n, k)
				vecs := slices.Clone(pool[:n])
				dead := make(map[uint32]bool)
				for range n / 8 {
					dead[uint32(rng.Intn(n))] = true
				}
				live := func(u uint32) bool { return !dead[u] }
				// An item no one else holds, so the whole row is fill;
				// and, under cosine, negative weights on shared items,
				// which score every sharing user below the fill's 0.
				fill := profile.FromItems([]uint32{1000})
				negative, err := profile.NewVector([]profile.Entry{{Item: 1, Weight: -1}, {Item: 2, Weight: -2}})
				if err != nil {
					t.Fatal(err)
				}
				// The index covers every profile the script inserts.
				ix, _ := profile.NewIndex(sim)
				for _, v := range append(slices.Clone(pool), fill, negative) {
					ix.Cover(v)
				}
				for u, v := range vecs {
					if live(uint32(u)) {
						ix.Add(uint32(u), v)
					}
				}
				profiles := func(u uint32) (profile.Vector, error) { return vecs[u], nil }
				cfg := Config{K: k, Sim: sim, Dead: func(u uint32) bool { return dead[u] }}
				indexed := cfg
				indexed.Index = ix
				viaIndex := scan.Clone()

				for i := 0; i < 12; i++ {
					u := uint32(scan.NumNodes())
					switch i % 4 {
					case 1: // upsert, or resurrect a tombstoned user
						u = uint32(rng.Intn(len(vecs)))
					case 3: // delete a live user
						d := uint32(rng.Intn(len(vecs)))
						if dead[d] {
							continue
						}
						ix.Remove(d, vecs[d])
						dead[d] = true
						for _, g := range []*graph.KNN{scan, viaIndex} {
							if _, err := Remove(g, d); err != nil {
								t.Fatal(err)
							}
						}
						continue
					}
					vec := pool[rng.Intn(len(pool))]
					switch i % 8 {
					case 4:
						vec = fill
					case 0:
						vec = negative
					}
					if int(u) == len(vecs) {
						scan.Grow(1)
						viaIndex.Grow(1)
						vecs = append(vecs, vec)
					} else {
						if live(u) {
							ix.Remove(u, vecs[u])
						}
						vecs[u] = vec
						delete(dead, u)
					}
					ix.Add(u, vec)

					got, err := Insert(viaIndex, profiles, indexed, u, vec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Insert(scan, profiles, cfg, u, vec)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Neighbors, want.Neighbors) || !slices.Equal(got.Touched, want.Touched) {
						t.Fatalf("%s step %d, user %d: indexed insert %+v, scanning insert %+v", name, i, u, got, want)
					}
					if !sameGraph(viaIndex, scan) {
						t.Fatalf("%s step %d, user %d: graphs differ", name, i, u)
					}
					if row := exactRow(t, vecs, live, k, sim, u); !slices.Equal(got.Neighbors, row) {
						t.Fatalf("%s step %d, user %d: row %v, exact.Compute's %v", name, i, u, got.Neighbors, row)
					}
				}
			}
		}
	}
}

// dropScores returns g with the same rows holding no scores.
func dropScores(t *testing.T, g *graph.KNN) *graph.KNN {
	t.Helper()
	plain, err := graph.NewKNN(g.NumNodes(), g.K())
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); int(u) < g.NumNodes(); u++ {
		if err := plain.Set(u, g.Neighbors(u)); err != nil {
			t.Fatal(err)
		}
	}
	return plain
}

// requireTrueScores checks that every row of g holds its scores and
// that each is sim's score of the two profiles, bit for bit.
func requireTrueScores(t *testing.T, g *graph.KNN, vecs []profile.Vector, sim profile.Similarity, when string) {
	t.Helper()
	for u := uint32(0); int(u) < g.NumNodes(); u++ {
		nbrs, scores := g.Neighbors(u), g.Scores(u)
		if len(nbrs) > 0 && scores == nil {
			t.Fatalf("%s: row %d %v holds no scores", when, u, nbrs)
		}
		for i, v := range nbrs {
			if want := sim.Score(vecs[u], vecs[v]); math.Float64bits(scores[i]) != math.Float64bits(want) {
				t.Fatalf("%s: edge %d→%d holds %v, the profiles score %v", when, u, v, scores[i], want)
			}
		}
	}
}

// TestInsertComparesStoredScores runs a seeded script of adds, upserts
// (each followed by Rescore) and deletes on a graph whose rows hold
// their scores. Before each insert, the same graph with its scores
// dropped takes the same insert: both must return the same row and
// Touched list and leave the same rows, and the scored one must spend
// no evaluation beyond its candidates. After each step every score the
// graph holds must be the similarity of the two profiles.
func TestInsertComparesStoredScores(t *testing.T) {
	sims := []profile.Similarity{profile.Cosine{}, profile.Jaccard{}}
	for seed := int64(1); seed <= 3; seed++ {
		for _, sim := range sims {
			for _, k := range []int{1, 6} {
				name := fmt.Sprintf("seed%d/%s/K%d", seed, sim.Name(), k)
				rng := rand.New(rand.NewSource(seed))
				n := 40 + rng.Intn(60)
				g, pool := randomCase(t, rng, n, k)
				vecs := slices.Clone(pool[:n])
				for u := uint32(0); int(u) < n; u++ {
					nbrs := g.Neighbors(u)
					scores := make([]float64, len(nbrs))
					for i, v := range nbrs {
						scores[i] = sim.Score(vecs[u], vecs[v])
					}
					if err := g.SetScored(u, nbrs, scores); err != nil {
						t.Fatal(err)
					}
				}
				profiles := func(u uint32) (profile.Vector, error) { return vecs[u], nil }
				cfg := Config{K: k, Sim: sim}
				saved, spent := 0, 0
				for i := 0; i < 16; i++ {
					u := uint32(g.NumNodes())
					switch i % 4 {
					case 1: // upsert
						u = uint32(rng.Intn(len(vecs)))
					case 3: // delete
						if _, err := Remove(g, uint32(rng.Intn(len(vecs)))); err != nil {
							t.Fatal(err)
						}
						requireTrueScores(t, g, vecs, sim, fmt.Sprintf("%s step %d", name, i))
						continue
					}
					vec := pool[rng.Intn(len(pool))]
					if int(u) == len(vecs) {
						g.Grow(1)
						vecs = append(vecs, vec)
					} else {
						vecs[u] = vec
					}
					plain := dropScores(t, g)
					got, err := Insert(g, profiles, cfg, u, vec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Insert(plain, profiles, cfg, u, vec)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Neighbors, want.Neighbors) || !slices.Equal(got.Touched, want.Touched) || got.Candidates != want.Candidates {
						t.Fatalf("%s step %d, user %d: scored insert %+v, unscored %+v", name, i, u, got, want)
					}
					if !sameGraph(g, plain) {
						t.Fatalf("%s step %d, user %d: graphs differ", name, i, u)
					}
					if got.SimEvals != got.Candidates {
						t.Fatalf("%s step %d: %d evaluations for %d candidates on a scored graph", name, i, got.SimEvals, got.Candidates)
					}
					saved += want.SimEvals - got.SimEvals
					spent += got.SimEvals
					if i%4 == 1 { // the rows that list u hold its old profile's scores
						var changed graph.NodeSet
						changed.Add(u)
						if _, err := Rescore(g, changed, profiles, sim); err != nil {
							t.Fatal(err)
						}
					}
					requireTrueScores(t, g, vecs, sim, fmt.Sprintf("%s step %d", name, i))
				}
				if saved <= 0 {
					t.Fatalf("%s: the stored scores saved no evaluation (%d spent)", name, spent)
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
		got, err := RemoveRun(g, run, nil)
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

// sameScoredGraph reports whether a and b hold the same rows, ids and
// score bits alike.
func sameScoredGraph(a, b *graph.KNN) bool {
	if !sameGraph(a, b) {
		return false
	}
	for u := uint32(0); int(u) < a.NumNodes(); u++ {
		sa, sb := a.Scores(u), b.Scores(u)
		if len(sa) != len(sb) || !slices.EqualFunc(sa, sb, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

// requireInListsCover checks that in names, for every user, each row of
// g that lists it.
func requireInListsCover(t *testing.T, g *graph.KNN, in *InLists, when string) {
	t.Helper()
	for v := uint32(0); int(v) < g.NumNodes(); v++ {
		for _, w := range g.Neighbors(v) {
			if _, ok := slices.BinarySearch(in.Rows(w), v); !ok {
				t.Fatalf("%s: row %d lists %d, whose in-list %v does not name it", when, v, w, in.Rows(w))
			}
		}
	}
}

// TestRemoveRunThroughInListsMatchesFullScan holds the strip that visits
// only the rows the in-lists name to the full scan. On random graphs
// whose rows hold their scores, with in-lists built, grown by inserts
// (Config.In) and padded with stale entries, a sequence of runs —
// random ones with repeats and out-of-range ids, and runs whose members
// list one another — must give the same touched lists and leave the
// same rows and scores; the in-lists must still name every lister after
// each. Then an upsert's RescoreListers must leave every row but the
// upserted user's as Rescore does, at one evaluation less per entry of
// that row.
func TestRemoveRunThroughInListsMatchesFullScan(t *testing.T) {
	sim := profile.Cosine{}
	for seed := int64(1); seed <= 20; seed++ {
		name := fmt.Sprintf("seed %d", seed)
		rng := rand.New(rand.NewSource(seed))
		n, k := 20+rng.Intn(150), 1+rng.Intn(8)
		g, pool := randomCase(t, rng, n, k)
		vecs := slices.Clone(pool[:n])
		for u := uint32(0); int(u) < n; u++ {
			nbrs := g.Neighbors(u)
			scores := make([]float64, len(nbrs))
			for i, v := range nbrs {
				scores[i] = sim.Score(vecs[u], vecs[v])
			}
			if err := g.SetScored(u, nbrs, scores); err != nil {
				t.Fatal(err)
			}
		}
		profiles := func(u uint32) (profile.Vector, error) { return vecs[u], nil }
		var in InLists
		in.Build(g)
		cfg := Config{K: k, Sim: sim, In: &in}
		for range 5 {
			u := uint32(g.NumNodes())
			g.Grow(1)
			vecs = append(vecs, pool[rng.Intn(len(pool))])
			if _, err := Insert(g, profiles, cfg, u, vecs[u]); err != nil {
				t.Fatal(err)
			}
		}
		for range n / 4 {
			in.Add(uint32(rng.Intn(len(vecs))), uint32(rng.Intn(len(vecs))))
		}
		requireInListsCover(t, g, &in, name)

		full := g.Clone()
		for r := range 6 {
			size := g.NumNodes()
			var run []uint32
			if r%2 == 0 {
				run = make([]uint32, 1+rng.Intn(10))
				for i := range run {
					run[i] = uint32(rng.Intn(size + 2)) // size, size+1: idempotent misses
				}
				run = append(run, run[0]) // a repeated delete
			} else {
				// a, a user a lists, and a user that lists a, in both orders.
				a := uint32(rng.Intn(size))
				run = []uint32{a}
				if nb := g.Neighbors(a); len(nb) > 0 {
					run = append(run, nb[rng.Intn(len(nb))])
				}
				if rows := in.Rows(a); len(rows) > 0 {
					if c := rows[rng.Intn(len(rows))]; slices.Contains(g.Neighbors(c), a) {
						run = append([]uint32{c}, run...)
					}
				}
			}
			want, err := RemoveRun(full, run, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RemoveRun(g, run, &in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range run {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s run %v member %d (%d): touched %v through in-lists, %v by the full scan", name, run, i, run[i], got[i], want[i])
				}
			}
			if !sameScoredGraph(g, full) {
				t.Fatalf("%s run %v: the graphs differ", name, run)
			}
			requireInListsCover(t, g, &in, fmt.Sprintf("%s after run %v", name, run))
		}

		// An upsert: u takes a new profile, and its own row has just
		// been written with it, as Insert does.
		for range 4 {
			u := uint32(rng.Intn(g.NumNodes()))
			vecs[u] = pool[rng.Intn(len(pool))]
			nbrs := g.Neighbors(u)
			scores := make([]float64, len(nbrs))
			for i, v := range nbrs {
				scores[i] = sim.Score(vecs[u], vecs[v])
			}
			if err := g.SetScored(u, nbrs, scores); err != nil {
				t.Fatal(err)
			}
			want := g.Clone()
			var changed graph.NodeSet
			changed.Add(u)
			wantEvals, err := Rescore(want, changed, profiles, sim)
			if err != nil {
				t.Fatal(err)
			}
			gotEvals, err := RescoreListers(g, &in, u, profiles, sim)
			if err != nil {
				t.Fatal(err)
			}
			if !sameScoredGraph(g, want) || gotEvals != wantEvals-len(nbrs) {
				t.Fatalf("%s upsert of %d: RescoreListers spent %d evaluations, Rescore %d on a row of %d, or the graphs differ",
					name, u, gotEvals, wantEvals, len(nbrs))
			}
			requireTrueScores(t, g, vecs, sim, fmt.Sprintf("%s upsert of %d", name, u))
		}
	}
}
