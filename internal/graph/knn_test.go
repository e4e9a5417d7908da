package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewKNNValidation(t *testing.T) {
	if _, err := NewKNN(5, 0); err == nil {
		t.Error("NewKNN with k=0 should fail")
	}
	if _, err := NewKNN(5, -1); err == nil {
		t.Error("NewKNN with negative k should fail")
	}
	g, err := NewKNN(5, 2)
	if err != nil {
		t.Fatalf("NewKNN: %v", err)
	}
	if g.K() != 2 || g.NumNodes() != 5 || g.NumEdges() != 0 {
		t.Errorf("fresh KNN state wrong: K=%d n=%d m=%d", g.K(), g.NumNodes(), g.NumEdges())
	}
}

func TestKNNSetValidation(t *testing.T) {
	g, err := NewKNN(4, 2)
	if err != nil {
		t.Fatalf("NewKNN: %v", err)
	}
	tests := []struct {
		name    string
		u       uint32
		nbrs    []uint32
		wantErr bool
	}{
		{name: "valid pair", u: 0, nbrs: []uint32{1, 2}},
		{name: "empty is valid", u: 0, nbrs: nil},
		{name: "too many neighbors", u: 0, nbrs: []uint32{1, 2, 3}, wantErr: true},
		{name: "self loop", u: 1, nbrs: []uint32{1}, wantErr: true},
		{name: "duplicate neighbor", u: 0, nbrs: []uint32{2, 2}, wantErr: true},
		{name: "neighbor out of range", u: 0, nbrs: []uint32{9}, wantErr: true},
		{name: "node out of range", u: 9, nbrs: []uint32{0}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.Set(tt.u, tt.nbrs)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Set(%d, %v) err = %v, wantErr = %v", tt.u, tt.nbrs, err, tt.wantErr)
			}
		})
	}
}

func TestKNNSetSortsAndCopies(t *testing.T) {
	g, _ := NewKNN(4, 3)
	input := []uint32{3, 1, 2}
	if err := g.Set(0, input); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Errorf("Neighbors(0) = %v, want sorted [1 2 3]", got)
	}
	input[0] = 99 // mutating the caller slice must not affect the graph
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Errorf("Neighbors(0) after caller mutation = %v", got)
	}
	if g.Neighbors(9) != nil {
		t.Error("Neighbors of out-of-range node should be nil")
	}
}

func TestRandomKNNInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := RandomKNN(50, 5, rng)
	if err != nil {
		t.Fatalf("RandomKNN: %v", err)
	}
	for u := uint32(0); u < 50; u++ {
		nbrs := g.Neighbors(u)
		if len(nbrs) != 5 {
			t.Fatalf("node %d has %d neighbors, want 5", u, len(nbrs))
		}
		seen := make(map[uint32]bool)
		for _, v := range nbrs {
			if v == u {
				t.Fatalf("node %d has a self loop", u)
			}
			if seen[v] {
				t.Fatalf("node %d has duplicate neighbor %d", u, v)
			}
			seen[v] = true
		}
	}
}

func TestRandomKNNSmallN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := RandomKNN(3, 10, rng) // k > n-1: degree must cap at n-1
	if err != nil {
		t.Fatalf("RandomKNN: %v", err)
	}
	for u := uint32(0); u < 3; u++ {
		if got := len(g.Neighbors(u)); got != 2 {
			t.Errorf("node %d degree = %d, want 2", u, got)
		}
	}
	g1, err := RandomKNN(1, 3, rng)
	if err != nil || g1.NumEdges() != 0 {
		t.Errorf("single-node KNN should have no edges (err=%v, m=%d)", err, g1.NumEdges())
	}
}

func TestRandomKNNDeterministic(t *testing.T) {
	a, _ := RandomKNN(20, 3, rand.New(rand.NewSource(7)))
	b, _ := RandomKNN(20, 3, rand.New(rand.NewSource(7)))
	if a.DiffEdges(b) != 0 {
		t.Error("same seed should produce identical KNN graphs")
	}
	c, _ := RandomKNN(20, 3, rand.New(rand.NewSource(8)))
	if a.DiffEdges(c) == 0 {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestDiffEdgesHandComputed(t *testing.T) {
	a, _ := NewKNN(4, 2)
	b, _ := NewKNN(4, 2)
	a.Set(0, []uint32{1, 2})
	b.Set(0, []uint32{1, 3}) // one edge differs each way -> 2
	a.Set(1, []uint32{0})
	b.Set(1, []uint32{0}) // identical -> 0
	b.Set(2, []uint32{0, 1})
	// node 2: a empty, b has 2 -> 2. Total = 4.
	if got := a.DiffEdges(b); got != 4 {
		t.Errorf("DiffEdges = %d, want 4", got)
	}
	if got := a.DiffEdges(a); got != 0 {
		t.Errorf("self diff = %d, want 0", got)
	}
}

func TestDiffEdgesSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		k := 1 + r.Intn(4)
		a, err := RandomKNN(n, k, r)
		if err != nil {
			return false
		}
		b, err := RandomKNN(n, k, r)
		if err != nil {
			return false
		}
		return a.DiffEdges(b) == b.DiffEdges(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestKNNCloneIsIndependent: a clone shares the original's rows, yet
// Set and Grow on either graph — overwriting a shared row, growing past
// the row table's spare capacity, setting a grown node — leave the
// other's rows and node count as they were.
func TestKNNCloneIsIndependent(t *testing.T) {
	rows := func(g *KNN) [][]uint32 {
		out := make([][]uint32, g.NumNodes())
		for u := range out {
			out[u] = slices.Clone(g.Neighbors(uint32(u)))
		}
		return out
	}
	for _, mutateClone := range []bool{true, false} {
		g, err := RandomKNN(6, 3, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		g.Grow(1) // the row table now has spare capacity to append into
		c := g.Clone()
		changed, kept := c, g
		if !mutateClone {
			changed, kept = g, c
		}
		want, n := rows(kept), kept.NumNodes()
		if err := changed.Set(0, []uint32{5, 4}); err != nil {
			t.Fatal(err)
		}
		changed.Grow(2)
		if err := changed.Set(6, []uint32{1}); err != nil {
			t.Fatal(err)
		}
		if err := changed.Set(8, []uint32{0, 2}); err != nil {
			t.Fatal(err)
		}
		if kept.NumNodes() != n {
			t.Errorf("mutateClone=%v: the other graph has %d nodes, want %d", mutateClone, kept.NumNodes(), n)
		}
		if got := rows(kept); !reflect.DeepEqual(got, want) {
			t.Errorf("mutateClone=%v: the other graph's rows are %v, want %v", mutateClone, got, want)
		}
		if got := changed.Neighbors(0); !reflect.DeepEqual(got, []uint32{4, 5}) {
			t.Errorf("mutateClone=%v: the mutated graph's row 0 is %v", mutateClone, got)
		}
	}
}

func TestKNNCloneAndDigraph(t *testing.T) {
	g, _ := NewKNN(3, 2)
	g.Set(0, []uint32{1, 2})
	g.Set(2, []uint32{0})

	c := g.Clone()
	c.Set(1, []uint32{0})
	if len(g.Neighbors(1)) != 0 {
		t.Error("mutating clone must not affect original")
	}

	d := g.Digraph()
	if d.NumEdges() != 3 || !d.HasEdge(0, 1) || !d.HasEdge(0, 2) || !d.HasEdge(2, 0) {
		t.Errorf("Digraph conversion wrong: %v", d.Edges())
	}
}

// TestKNNScoredRows: SetScored stores ascending ids with their scores
// and refuses what Set would plus unsorted ids and a score count that
// is not one per id; Set's rows hold none. Emit writes a NewScoredKNN
// row once, and a clone neither inherits the slabs nor sees a later
// emit.
func TestKNNScoredRows(t *testing.T) {
	g, err := NewScoredKNN(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetScored(0, []uint32{1, 2}, []float64{0.5, 0.25}); err != nil {
		t.Fatal(err)
	}
	if got := g.Scores(0); !slices.Equal(got, []float64{0.5, 0.25}) {
		t.Fatalf("Scores(0) = %v", got)
	}
	for _, bad := range []struct {
		nbrs   []uint32
		scores []float64
	}{
		{[]uint32{2, 1}, []float64{1, 1}},
		{[]uint32{1, 2}, []float64{1}},
		{[]uint32{1, 1}, []float64{1, 1}},
		{[]uint32{0}, []float64{1}},
	} {
		if err := g.SetScored(0, bad.nbrs, bad.scores); err == nil {
			t.Errorf("SetScored(0, %v, %v) accepted", bad.nbrs, bad.scores)
		}
	}
	if err := g.Set(1, []uint32{3, 0}); err != nil || g.Scores(1) != nil {
		t.Fatalf("Set: err %v, scores %v", err, g.Scores(1))
	}

	clone := g.Clone()
	if err := g.Emit(2, []uint32{0, 3}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.Neighbors(2), []uint32{0, 3}) || !slices.Equal(g.Scores(2), []float64{1, 2}) {
		t.Fatalf("emitted row %v %v", g.Neighbors(2), g.Scores(2))
	}
	if err := g.Emit(2, []uint32{1}, []float64{1}); err == nil {
		t.Error("a row was emitted twice")
	}
	if len(clone.Neighbors(2)) != 0 {
		t.Errorf("the clone sees the emit: %v", clone.Neighbors(2))
	}
	if err := clone.Emit(3, []uint32{1}, []float64{1}); err == nil {
		t.Error("a clone emitted into its original's slabs")
	}
	plain, _ := NewKNN(4, 2)
	if err := plain.Emit(0, []uint32{1}, []float64{1}); err == nil {
		t.Error("Emit on a graph without slabs was accepted")
	}
}
