package profile

import (
	"math"
	"math/rand"
	"testing"
)

// onlyScore is a measure that offers nothing but Score, as a
// user-supplied Similarity would.
type onlyScore struct{}

func (onlyScore) Score(a, b Vector) float64 { return a.Dot(b) - float64(a.Len()+b.Len()) }
func (onlyScore) Name() string              { return "only-score" }

var sourceMeasures = []Similarity{Cosine{}, Jaccard{}, Dice{}, Overlap{}, onlyScore{}}

// requireSourceMatchesScore checks, for every measure and every ordered
// pair of vecs, that a Source reset to the first scores the second to
// exactly the bits Similarity.Score gives — with one Source reused
// across all of them, as the scorer reuses it across runs.
func requireSourceMatchesScore(t *testing.T, vecs []Vector) {
	t.Helper()
	for _, sim := range sourceMeasures {
		src := NewSource(sim)
		for si, s := range vecs {
			src.Reset(s)
			for di, d := range vecs {
				got, want := src.Score(d), sim.Score(s, d)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: source %d (%v) vs %d (%v): Source.Score = %v (%#x), Score = %v (%#x)",
						sim.Name(), si, s.Entries(), di, d.Entries(), got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestSourceMatchesScoreOnEdgeCases(t *testing.T) {
	const last = 0xFFFFFFFF
	requireSourceMatchesScore(t, []Vector{
		{}, // empty
		FromItems([]uint32{5}),
		FromItems([]uint32{0}),
		FromItems([]uint32{last}),
		FromItems([]uint32{0, last}),
		FromItems([]uint32{1, 2, 3, 4}),
		FromItems([]uint32{1, 2, 3, 4}), // identical to the previous
		FromItems([]uint32{10, 20, 30}), // disjoint from it
		mustVector(t, Entry{0, 1.5}, Entry{7, -2}, Entry{last, 0.25}),
		mustVector(t, Entry{0, -1}, Entry{3, 0}, Entry{7, 0}, Entry{last - 1, 4}, Entry{last, -0.5}),
		mustVector(t, Entry{3, 0}, Entry{7, 0}), // zero norm
		mustVector(t, Entry{2, 1e-30}, Entry{3, 1e30}, Entry{4, -1e30}, Entry{7, 3}),
	})
}

// homeSlot is where Source.Reset files item in the table of a source
// with n items.
func homeSlot(item uint32, n int) uint32 {
	src := NewSource(Cosine{})
	items := make([]uint32, n) // any n items: the table's size depends on n only
	for i := range items {
		items[i] = uint32(i)
	}
	src.Reset(FromItems(items))
	return (item * hashMul) >> src.shift
}

// TestSourceMatchesScoreWhenSlotsCollide builds sources whose items
// share a home slot — with the first item (whose claim is implicit) and
// with a later one — so they reach the spill list, and checks that
// they are still found, in order.
func TestSourceMatchesScoreWhenSlotsCollide(t *testing.T) {
	const n = 6
	bySlot := map[uint32][]uint32{}
	for it := uint32(0); it < 4096; it++ {
		h := homeSlot(it, n)
		bySlot[h] = append(bySlot[h], it)
	}
	var crowded [][]uint32
	for _, its := range bySlot {
		if len(its) >= 3 {
			crowded = append(crowded, its[:3])
		}
		if len(crowded) == 2 {
			break
		}
	}
	if len(crowded) < 2 {
		t.Fatal("no two home slots with three items each among the first 4096 ids")
	}
	a, b := crowded[0], crowded[1]
	// First item and two more on one slot; three on another.
	all := FromItems([]uint32{a[0], a[1], a[2], b[0], b[1], b[2]})
	if all.Len() != n {
		t.Fatalf("test needs %d distinct items, got %d", n, all.Len())
	}
	src := NewSource(Cosine{})
	src.Reset(all)
	if len(src.spill) < 3 {
		t.Fatalf("expected at least 3 spilled items, got %d", len(src.spill))
	}
	weighted := mustVector(t, Entry{a[0], 2}, Entry{a[1], -3}, Entry{a[2], 5}, Entry{b[0], 7}, Entry{b[1], 0.5}, Entry{b[2], 11})
	requireSourceMatchesScore(t, []Vector{
		all,
		weighted,
		FromItems([]uint32{a[1], b[2]}),
		FromItems([]uint32{a[2], a[2] + 1, b[0], b[1]}),
		mustVector(t, Entry{a[0], 1}, Entry{a[2], 0.25}, Entry{b[1], -9}, Entry{4097, 1}),
		FromItems([]uint32{4098, 4099}),
	})
}

func TestSourceMatchesScoreOnRandomProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	vecs := make([]Vector, 60)
	for i := range vecs {
		n := rng.Intn(40)
		entries := make([]Entry, 0, n)
		seen := map[uint32]bool{}
		for len(entries) < n {
			// A small id space so profiles overlap, plus the occasional
			// huge id.
			it := uint32(rng.Intn(120))
			if rng.Intn(10) == 0 {
				it = rng.Uint32()
			}
			if seen[it] {
				continue
			}
			seen[it] = true
			entries = append(entries, Entry{Item: it, Weight: float32(rng.NormFloat64())})
		}
		vecs[i] = mustVector(t, entries...)
	}
	requireSourceMatchesScore(t, vecs)
}

// TestNormTravelsWithTheVector: every way of obtaining a Vector yields
// the norm a fresh summation over its weights gives.
func TestNormTravelsWithTheVector(t *testing.T) {
	fresh := func(v Vector) float64 {
		var sum float64
		for _, e := range v.Entries() {
			sum += float64(e.Weight) * float64(e.Weight)
		}
		return math.Sqrt(sum)
	}
	base := mustVector(t, Entry{1, 3}, Entry{4, -4}, Entry{9, 0.5})
	decoded, _, err := DecodeVector(base.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	var arena Arena
	arena.Append(base)
	if _, err := arena.Decode(base.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]Vector{
		"zero":        {},
		"NewVector":   base,
		"FromItems":   FromItems([]uint32{3, 1, 2, 3}),
		"WithItem":    base.WithItem(5, 2),
		"replaced":    base.WithItem(4, 1),
		"WithoutItem": base.WithoutItem(4),
		"absent":      base.WithoutItem(77),
		"decoded":     decoded,
		"arena copy":  arena.At(0),
		"arena dec":   arena.At(1),
	} {
		if got, want := v.Norm(), fresh(v); got != want {
			t.Errorf("%s: Norm() = %v, summation gives %v", name, got, want)
		}
	}
}
