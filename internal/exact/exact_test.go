package exact

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"knnpc/internal/dataset"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

func clusteredStore(t *testing.T, users int) *profile.Store {
	t.Helper()
	vecs, _, err := dataset.RatingsProfiles(users, 500, 15, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	return profile.NewStoreFromVectors(vecs)
}

func TestComputeValidation(t *testing.T) {
	store := profile.NewStore(3)
	if _, err := Compute(store, Options{K: 0, Sim: profile.Cosine{}}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Compute(store, Options{K: 2}); err == nil {
		t.Error("nil similarity should fail")
	}
}

func TestComputeEmptyStore(t *testing.T) {
	g, err := Compute(profile.NewStore(0), Options{K: 2, Sim: profile.Cosine{}})
	if err != nil || g.NumNodes() != 0 {
		t.Errorf("empty store: g=%v err=%v", g, err)
	}
}

func TestComputeHandComputed(t *testing.T) {
	// Three users: 0 and 1 share an item, 2 is disjoint.
	mk := func(items ...uint32) profile.Vector { return profile.FromItems(items) }
	store := profile.NewStoreFromVectors([]profile.Vector{
		mk(1, 2),
		mk(2, 3),
		mk(9),
	})
	g, err := Compute(store, Options{K: 1, Sim: profile.Jaccard{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1}) {
		t.Errorf("N(0) = %v, want [1]", got)
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("N(1) = %v, want [0]", got)
	}
	// user 2 ties at 0 similarity with both; smaller id wins.
	if got := g.Neighbors(2); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("N(2) = %v, want [0]", got)
	}
}

func TestComputeEveryNodeHasKNeighbors(t *testing.T) {
	store := clusteredStore(t, 40)
	g, err := Compute(store, Options{K: 5, Sim: profile.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 40; u++ {
		if len(g.Neighbors(u)) != 5 {
			t.Fatalf("node %d has %d neighbors, want 5", u, len(g.Neighbors(u)))
		}
	}
}

func TestComputeParallelMatchesSerial(t *testing.T) {
	store := clusteredStore(t, 60)
	serial, err := Compute(store, Options{K: 4, Sim: profile.Cosine{}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := Compute(store, Options{K: 4, Sim: profile.Cosine{}, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if serial.DiffEdges(par) != 0 {
			t.Errorf("workers=%d: parallel result differs from serial", workers)
		}
	}
}

// bruteForce is the oracle Compute is held to: every ordered pair
// scored, each user keeping its K best.
func bruteForce(t *testing.T, vecs []profile.Vector, k int, sim profile.Similarity) *graph.KNN {
	t.Helper()
	g, err := graph.NewKNN(len(vecs), k)
	if err != nil {
		t.Fatal(err)
	}
	for u := range vecs {
		tk, err := knn.NewTopK(k)
		if err != nil {
			t.Fatal(err)
		}
		for v := range vecs {
			if v != u {
				tk.Push(uint32(v), sim.Score(vecs[u], vecs[v]))
			}
		}
		if err := g.Set(uint32(u), tk.IDs()); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// unindexed hides a measure's formula, so profile.NewIndex refuses it
// and Compute scores every pair.
type unindexed struct{ profile.Similarity }

// randomProfiles draws n weighted profiles over a small item universe:
// some empty, some holding only an item no one else holds, some with
// negative weights, which score the users sharing an item below the
// fill's 0 under cosine.
func randomProfiles(t *testing.T, rng *rand.Rand, n int) []profile.Vector {
	t.Helper()
	vecs := make([]profile.Vector, n)
	for u := range vecs {
		var entries []profile.Entry
		switch rng.Intn(10) {
		case 0: // empty
		case 1:
			entries = []profile.Entry{{Item: uint32(10_000 + u), Weight: 1}}
		default:
			for range 1 + rng.Intn(8) {
				item := uint32(rng.Intn(30))
				if slices.ContainsFunc(entries, func(e profile.Entry) bool { return e.Item == item }) {
					continue
				}
				w := float32(1 + rng.Intn(4))
				if rng.Intn(12) == 0 {
					w = -w
				}
				entries = append(entries, profile.Entry{Item: item, Weight: w})
			}
		}
		v, err := profile.NewVector(entries)
		if err != nil {
			t.Fatal(err)
		}
		vecs[u] = v
	}
	return vecs
}

// TestComputeMatchesBruteForce holds the postings path to brute force
// for all four measures at several seeds, sizes and K, serially and
// over workers, with users that share an item with fewer than K others
// or with no one, and empty profiles. A measure the index refuses takes
// the brute-force path and must agree too.
func TestComputeMatchesBruteForce(t *testing.T) {
	sims := []profile.Similarity{profile.Cosine{}, profile.Jaccard{}, profile.Dice{}, profile.Overlap{}}
	if _, ok := profile.NewIndex(unindexed{profile.Cosine{}}); ok {
		t.Fatal("the index accepts a measure whose formula is hidden")
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, n := range []int{1, 2, 9, 70, 160} {
			vecs := randomProfiles(t, rand.New(rand.NewSource(seed)), n)
			store := profile.NewStoreFromVectors(vecs)
			for _, sim := range sims {
				for _, k := range []int{1, 4, 16} {
					want := bruteForce(t, vecs, k, sim)
					for _, workers := range []int{1, 3} {
						for _, measure := range []profile.Similarity{sim, unindexed{sim}} {
							name := fmt.Sprintf("seed%d/n%d/%s/K%d/workers%d/%T", seed, n, sim.Name(), k, workers, measure)
							got, err := Compute(store, Options{K: k, Sim: measure, Workers: workers})
							if err != nil {
								t.Fatal(err)
							}
							for u := uint32(0); int(u) < n; u++ {
								if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
									t.Fatalf("%s: user %d's row %v, brute force's %v", name, u, got.Neighbors(u), want.Neighbors(u))
								}
							}
						}
					}
				}
			}
		}
	}
}
