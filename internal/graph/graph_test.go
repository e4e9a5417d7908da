package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDigraphAddRemove(t *testing.T) {
	g := NewDigraph(4)
	if got := g.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if !g.AddEdge(0, 1) {
		t.Error("AddEdge(0,1) first insert should report true")
	}
	if g.AddEdge(0, 1) {
		t.Error("AddEdge(0,1) duplicate insert should report false")
	}
	if !g.AddEdge(1, 0) {
		t.Error("AddEdge(1,0) reverse arc should be independent")
	}
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should see both arcs")
	}
	if g.HasEdge(2, 3) {
		t.Error("HasEdge(2,3) should be false")
	}
	if !g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge(0,1) should report true")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge(0,1) twice should report false")
	}
	if g.HasEdge(0, 1) {
		t.Error("edge (0,1) should be gone after removal")
	}
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges after removal = %d, want 1", got)
	}
}

func TestDigraphOutOfRange(t *testing.T) {
	g := NewDigraph(2)
	if g.AddEdge(0, 5) {
		t.Error("AddEdge with out-of-range dst should report false")
	}
	if g.AddEdge(5, 0) {
		t.Error("AddEdge with out-of-range src should report false")
	}
	if g.NumEdges() != 0 {
		t.Error("out-of-range adds must not change edge count")
	}
	if g.OutDegree(9) != 0 || g.OutNeighbors(9) != nil {
		t.Error("queries on out-of-range nodes should be empty")
	}
	if g.RemoveEdge(9, 0) {
		t.Error("RemoveEdge on out-of-range src should report false")
	}
}

func TestFromEdges(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {0, 1}} // duplicate collapses
	g, err := FromEdges(3, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (duplicate collapsed)", g.NumEdges())
	}
	if _, err := FromEdges(2, []Edge{{0, 7}}); err == nil {
		t.Fatal("FromEdges with out-of-range endpoint should fail")
	}
}

func TestDigraphCloneIsDeep(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("mutating the clone must not affect the original")
	}
	if c.NumEdges() != 2 || g.NumEdges() != 1 {
		t.Errorf("edge counts diverged wrong: clone=%d orig=%d", c.NumEdges(), g.NumEdges())
	}
}

func TestTransposeHandComputed(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	tr := g.Transpose()
	want := map[Edge]bool{{1, 0}: true, {2, 0}: true, {1, 2}: true}
	got := tr.Edges()
	if len(got) != len(want) {
		t.Fatalf("transpose has %d edges, want %d", len(got), len(want))
	}
	for _, e := range got {
		if !want[e] {
			t.Errorf("unexpected transposed edge %v", e)
		}
	}
}

func TestDegreeAccessors(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(3, 1)
	if got := g.OutDegrees(); !reflect.DeepEqual(got, []int{2, 0, 0, 1}) {
		t.Errorf("OutDegrees = %v", got)
	}
	if got := g.InDegrees(); !reflect.DeepEqual(got, []int{0, 2, 1, 0}) {
		t.Errorf("InDegrees = %v", got)
	}
	if got := g.TotalDegrees(); !reflect.DeepEqual(got, []int{2, 2, 1, 1}) {
		t.Errorf("TotalDegrees = %v", got)
	}
}

func TestSortAdjacency(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.SortAdjacency()
	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Errorf("sorted adjacency = %v, want [1 2 3]", got)
	}
}

// randomEdges draws m random (possibly duplicate) edges over n nodes.
func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))}
	}
	return edges
}

func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		g, err := FromEdges(n, randomEdges(r, n, 3*n))
		if err != nil {
			return false
		}
		g.SortAdjacency()
		tt := g.Transpose().Transpose()
		tt.SortAdjacency()
		return reflect.DeepEqual(g.Edges(), tt.Edges())
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNodeSet: the zero set is empty and answers ids beyond its length;
// Add grows it, Remove and Clone leave other members and the original
// alone, and Len counts members.
func TestNodeSet(t *testing.T) {
	var s NodeSet
	if s.Has(0) || s.Has(1<<20) || s.Len() != 0 {
		t.Fatal("zero NodeSet is not empty")
	}
	s.Remove(5) // absent, beyond the length: a no-op
	for _, u := range []uint32{0, 63, 64, 200} {
		s.Add(u)
	}
	if len(s) != 4 || s.Len() != 4 || !s.Has(63) || !s.Has(200) || s.Has(62) || s.Has(201) || s.Has(1000) {
		t.Fatalf("after adds: %v", s)
	}
	c := s.Clone()
	s.Remove(63)
	if s.Has(63) || !c.Has(63) || s.Len() != 3 || c.Len() != 4 {
		t.Fatal("Remove reached the clone, or missed the set")
	}
}
