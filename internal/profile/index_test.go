package profile

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// indexMeasures are the measures an Index accepts.
var indexMeasures = []Similarity{Cosine{}, Jaccard{}, Dice{}, Overlap{}}

func TestNewIndexRejectsAScoreOnlyMeasure(t *testing.T) {
	if _, ok := NewIndex(onlyScore{}); ok {
		t.Fatal("NewIndex accepted a measure that offers nothing but Score")
	}
	for _, sim := range indexMeasures {
		if _, ok := NewIndex(sim); !ok {
			t.Fatalf("NewIndex rejected %s", sim.Name())
		}
	}
}

// indexVector draws a profile over a small item space, so profiles
// share items, with the occasional huge item id, and weights that tie,
// cancel (negative) or vanish (zero). Some profiles are empty.
func indexVector(t *testing.T, rng *rand.Rand) Vector {
	weights := []float32{1, 2, 0.5, -1, 0}
	n := rng.Intn(9)
	entries := make([]Entry, 0, n)
	for len(entries) < n {
		it := uint32(rng.Intn(30))
		if rng.Intn(12) == 0 {
			it = math.MaxUint32 - uint32(rng.Intn(2))
		}
		if slices.ContainsFunc(entries, func(e Entry) bool { return e.Item == it }) {
			continue
		}
		w := rng.Float32()
		if k := rng.Intn(len(weights) + 1); k < len(weights) {
			w = weights[k]
		}
		entries = append(entries, Entry{Item: it, Weight: w})
	}
	return mustVector(t, entries...)
}

// requireScanMatchesScore checks one Scan of q, whose items the index
// covers, against the indexed profiles live: the users it returns are
// ascending and are exactly the indexed users sharing an item with q,
// each scored to the bits sim.Score(q, ·) gives, and every other
// indexed user scores 0.
func requireScanMatchesScore(t *testing.T, ix *Index, sim Similarity, live map[uint32]Vector, q Vector) {
	t.Helper()
	users, scores := ix.Scan(q)
	if !slices.IsSorted(users) || len(scores) != len(users) {
		t.Fatalf("%s: Scan returned %v with %d scores, want ascending users each with a score", sim.Name(), users, len(scores))
	}
	for u, v := range live {
		want := sim.Score(q, v)
		k, found := slices.BinarySearch(users, u)
		if shares := q.IntersectionSize(v) > 0; shares != found {
			t.Fatalf("%s: user %d (%v) shares an item with %v: %v, returned by Scan: %v", sim.Name(), u, v.Entries(), q.Entries(), shares, found)
		}
		if !found {
			if want != 0 {
				t.Fatalf("%s: user %d shares no item with %v but scores %v", sim.Name(), u, q.Entries(), want)
			}
			continue
		}
		if got := scores[k]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: user %d (%v) against %v: Scan = %v (%#x), Score = %v (%#x)",
				sim.Name(), u, v.Entries(), q.Entries(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if len(users) > len(live) {
		t.Fatalf("%s: Scan returned %d users, only %d are indexed", sim.Name(), len(users), len(live))
	}
}

// postingsOf is ix's postings by covered item, leaving out empty lists.
func postingsOf(ix *Index) map[uint32][]posting {
	out := make(map[uint32][]posting)
	for it, s := range ix.slot {
		if len(ix.lists[s]) > 0 {
			out[it] = ix.lists[s]
		}
	}
	return out
}

// FuzzIndex runs a script of Add, Remove (upserts are Remove then Add),
// Scan and Reset on an Index that covers the items of a few profiles.
// Every Scan of a covered profile must match Similarity.Score bit for
// bit, and the index the script leaves must equal, postings and all,
// one built fresh over the same cover from the profiles still indexed.
func FuzzIndex(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 8, 2, 3, 1, 6, 0, 4, 2})
	f.Add(int64(2), []byte{0, 0, 0, 4, 5, 9, 2, 13, 3, 7, 11})
	f.Add(int64(3), []byte{8, 12, 16, 20, 24, 28, 2, 1, 5, 9, 3, 7, 6})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		sim := indexMeasures[rng.Intn(len(indexMeasures))]
		const users = 24
		ix, _ := NewIndex(sim)
		live := make(map[uint32]Vector)
		var cover []Vector
		// reindex draws a fresh cover and re-indexes every live user
		// over it in id order, as a delta pass does.
		reindex := func() {
			cover = []Vector{indexVector(t, rng), indexVector(t, rng), indexVector(t, rng)}
			ix.Reset(cover)
			for u := uint32(0); u < users; u++ {
				if v, ok := live[u]; ok {
					ix.Add(u, v)
				}
			}
		}
		reindex()
		for _, b := range script {
			u := uint32(b/4) % users
			switch b % 4 {
			case 0: // add, or upsert an indexed user
				v := indexVector(t, rng)
				if rng.Intn(2) == 0 {
					v = cover[rng.Intn(len(cover))] // a covered profile
				}
				if old, ok := live[u]; ok {
					ix.Remove(u, old)
				}
				ix.Add(u, v)
				live[u] = v
			case 1:
				if old, ok := live[u]; ok {
					ix.Remove(u, old)
					delete(live, u)
				}
			case 2: // scan each covered profile
				for _, q := range cover {
					requireScanMatchesScore(t, ix, sim, live, q)
				}
			case 3:
				reindex()
			}
		}

		fresh, _ := NewIndex(sim)
		fresh.Reset(cover)
		for u := uint32(0); u < users; u++ {
			if v, ok := live[u]; ok {
				fresh.Add(u, v)
			}
		}
		if got, want := postingsOf(ix), postingsOf(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("postings differ from a fresh build:\n got %v\nwant %v", got, want)
		}
		for u := range live {
			if got, want := ix.shapes[u], fresh.shapes[u]; got != want {
				t.Fatalf("user %d: shape %+v, a fresh build has %+v", u, got, want)
			}
		}
		for _, q := range cover {
			requireScanMatchesScore(t, ix, sim, live, q)
		}
	})
}
