package graph

import (
	"math/rand"
	"reflect"
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
