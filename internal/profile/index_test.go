package profile

import (
	"cmp"
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

// postingsOf is ix's postings by covered item, each list ascending by
// user whether in the slab or the overflow, leaving out empty lists.
func postingsOf(ix *Index) map[uint32][]posting {
	out := make(map[uint32][]posting)
	for it, s := range ix.slot {
		ps := slices.Clone(ix.post[ix.start[s] : ix.start[s]+ix.size[s]])
		for e := ix.head[s]; e != 0; e = ix.over[e-1].next {
			ps = append(ps, ix.over[e-1].posting)
		}
		if len(ps) > 0 {
			slices.SortFunc(ps, func(a, b posting) int { return cmp.Compare(a.user, b.user) })
			out[it] = ps
		}
	}
	return out
}

// buildIndex is an index built fresh over the profiles of live.
func buildIndex(t *testing.T, sim Similarity, users int, live map[uint32]Vector) *Index {
	t.Helper()
	ix, _ := NewIndex(sim)
	err := ix.Build(users, func(u uint32) (Vector, bool, error) {
		v, ok := live[u]
		return v, ok, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// FuzzIndex runs a script of Add (each profile covered first, as a
// kept index is), Remove (upserts are Remove then Add), Cover of
// profiles no one holds, compaction, Build and Scan on an Index. Every
// Scan — of the covered profiles, of the indexed ones and of fresh
// ones — must match Similarity.Score bit for bit, and the index the
// script leaves must equal, postings and shapes, one built fresh from
// the profiles still indexed.
func FuzzIndex(f *testing.F) {
	f.Add(int64(1), []byte{0, 6, 12, 2, 3, 1, 8, 0, 4, 2, 5, 2})
	f.Add(int64(2), []byte{0, 0, 0, 4, 5, 9, 2, 13, 3, 7, 11, 16, 22})
	f.Add(int64(3), []byte{12, 18, 24, 30, 36, 42, 3, 1, 4, 7, 2, 6, 0, 8, 10})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		sim := indexMeasures[rng.Intn(len(indexMeasures))]
		const users = 24
		ix, _ := NewIndex(sim)
		live := make(map[uint32]Vector)
		var cover []Vector // profiles covered without being indexed
		scanAll := func() {
			probes := append(slices.Clone(cover), indexVector(t, rng), indexVector(t, rng))
			for _, v := range live {
				probes = append(probes, v)
			}
			for _, q := range probes {
				requireScanMatchesScore(t, ix, sim, live, q)
			}
		}
		for _, b := range script {
			u := uint32(b/6) % users
			switch b % 6 {
			case 0: // add, or upsert an indexed user
				v := indexVector(t, rng)
				if len(cover) > 0 && rng.Intn(2) == 0 {
					v = cover[rng.Intn(len(cover))] // a covered profile
				}
				if old, ok := live[u]; ok {
					ix.Remove(u, old)
				}
				ix.Cover(v)
				ix.Add(u, v)
				live[u] = v
			case 1:
				if old, ok := live[u]; ok {
					ix.Remove(u, old)
					delete(live, u)
				}
			case 2:
				scanAll()
			case 3:
				v := indexVector(t, rng)
				ix.Cover(v)
				cover = append(cover, v)
			case 4:
				ix.compact()
			case 5:
				err := ix.Build(users, func(u uint32) (Vector, bool, error) {
					v, ok := live[u]
					return v, ok, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				cover = cover[:0] // Build covers the indexed profiles' items only
			}
		}

		fresh := buildIndex(t, sim, users, live)
		if got, want := postingsOf(ix), postingsOf(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("postings differ from a fresh build:\n got %v\nwant %v", got, want)
		}
		for u := range live {
			if got, want := ix.shapes[u], fresh.shapes[u]; got != want {
				t.Fatalf("user %d: shape %+v, a fresh build has %+v", u, got, want)
			}
		}
		scanAll()
		ix.compact()
		if got, want := postingsOf(ix), postingsOf(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("postings differ from a fresh build after compaction:\n got %v\nwant %v", got, want)
		}
		for s := range ix.size {
			if ix.head[s] != 0 || ix.start[s]+ix.size[s] != ix.start[s+1] {
				t.Fatalf("after compaction slot %d spans [%d, %d) with %d postings and overflow %d", s, ix.start[s], ix.start[s+1], ix.size[s], ix.head[s])
			}
		}
		scanAll()
	})
}

// TestIndexKeptUnderChurn keeps one index through many rounds of adds,
// upserts and removes, long enough for Add to compact it several times,
// as a delta path's index lives: every scan must match a fresh build's,
// and the index must stay near 8 bytes a posting.
func TestIndexKeptUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draw := func() Vector {
		entries := make([]Entry, 0, 12)
		for len(entries) < 12 {
			it := uint32(rng.Intn(400))
			if !slices.ContainsFunc(entries, func(e Entry) bool { return e.Item == it }) {
				entries = append(entries, Entry{Item: it, Weight: 1 + rng.Float32()})
			}
		}
		return mustVector(t, entries...)
	}
	const start, rounds, perRound = 2000, 40, 50
	live := make(map[uint32]Vector)
	for u := range uint32(start) {
		live[u] = draw()
	}
	ix := buildIndex(t, Cosine{}, start, live)
	next := uint32(start)
	compactions := 0
	for r := range rounds {
		for range perRound {
			v := draw()
			ix.Cover(v)
			u := next
			if rng.Intn(3) == 0 { // an upsert
				u = uint32(rng.Intn(int(next)))
				if old, ok := live[u]; ok {
					ix.Remove(u, old)
				}
			} else {
				next++
			}
			before := ix.nOver
			ix.Add(u, v)
			if ix.nOver < before {
				compactions++
			}
			live[u] = v
			if d := uint32(rng.Intn(int(next))); rng.Intn(2) == 0 && live[d].Len() > 0 {
				ix.Remove(d, live[d])
				delete(live, d)
			}
		}
		if r%8 == 7 {
			fresh := buildIndex(t, Cosine{}, int(next), live)
			for range 20 {
				q := draw()
				gotU, gotS := ix.Scan(q)
				gotU, gotS = slices.Clone(gotU), slices.Clone(gotS)
				wantU, wantS := fresh.Scan(q)
				if !slices.Equal(gotU, wantU) || !slices.Equal(gotS, wantS) {
					t.Fatalf("round %d: kept index scans %v to %v %v, a fresh one to %v %v", r, q.Entries(), gotU, gotS, wantU, wantS)
				}
			}
		}
	}
	if compactions == 0 {
		t.Fatal("Add never compacted the overflow")
	}
	postings := 0
	for _, v := range live {
		postings += v.Len()
	}
	if perPosting := float64(ix.Bytes()) / float64(postings); perPosting > 16 {
		t.Fatalf("the kept index holds %d bytes for %d postings, %.1f a posting", ix.Bytes(), postings, perPosting)
	}
}
