package profile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCosineHandComputed(t *testing.T) {
	a := mustVector(t, Entry{1, 1}, Entry{2, 1})
	b := mustVector(t, Entry{2, 1}, Entry{3, 1})
	// dot = 1, |a| = |b| = sqrt(2) -> cosine = 1/2
	if got := (Cosine{}).Score(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cosine = %v, want 0.5", got)
	}
	if got := (Cosine{}).Score(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self cosine = %v, want 1", got)
	}
	if got := (Cosine{}).Score(a, Vector{}); got != 0 {
		t.Errorf("cosine with empty = %v, want 0", got)
	}
}

func TestJaccardDiceOverlapHandComputed(t *testing.T) {
	a := FromItems([]uint32{1, 2, 3})
	b := FromItems([]uint32{2, 3, 4, 5})
	// intersection 2, union 5
	tests := []struct {
		sim  Similarity
		want float64
	}{
		{Jaccard{}, 2.0 / 5.0},
		{Dice{}, 2 * 2.0 / 7.0},
		{Overlap{}, 2.0 / 3.0},
	}
	for _, tt := range tests {
		t.Run(tt.sim.Name(), func(t *testing.T) {
			if got := tt.sim.Score(a, b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Score = %v, want %v", got, tt.want)
			}
			if got := tt.sim.Score(a, a); math.Abs(got-1) > 1e-12 {
				t.Errorf("self score = %v, want 1", got)
			}
			if got := tt.sim.Score(Vector{}, Vector{}); got != 0 {
				t.Errorf("empty-empty score = %v, want 0", got)
			}
		})
	}
}

func allSimilarities() []Similarity {
	return []Similarity{Cosine{}, Jaccard{}, Dice{}, Overlap{}}
}

// TestSimilaritySymmetryProperty: every measure scores a pair to the
// same bits in either order — phase 4 credits one score to both
// endpoints, so a last-bit difference would make the graph depend on
// which endpoint a tuple names as its source. The Source path's
// symmetry is checked by requireSourceMatchesScore.
func TestSimilaritySymmetryProperty(t *testing.T) {
	for _, sim := range allSimilarities() {
		sim := sim
		t.Run(sim.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				a, b := randomVector(r, 15, 30), randomVector(r, 15, 30)
				return math.Float64bits(sim.Score(a, b)) == math.Float64bits(sim.Score(b, a))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSetSimilaritiesBoundedProperty(t *testing.T) {
	// Set-based measures are always within [0, 1], whatever the weights.
	for _, sim := range []Similarity{Jaccard{}, Dice{}, Overlap{}} {
		sim := sim
		t.Run(sim.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				a, b := randomVector(r, 15, 30), randomVector(r, 15, 30)
				s := sim.Score(a, b)
				return s >= 0 && s <= 1
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCosineBoundedProperty(t *testing.T) {
	// Cosine with arbitrary-sign weights stays within [-1, 1].
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVector(r, 15, 30), randomVector(r, 15, 30)
		s := (Cosine{}).Score(a, b)
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, want := range allSimilarities() {
		got, ok := ByName(want.Name())
		if !ok || got.Name() != want.Name() {
			t.Errorf("ByName(%q) = %v, %v", want.Name(), got, ok)
		}
	}
	if _, ok := ByName("euclidean"); ok {
		t.Error("unknown name should report false")
	}
}
