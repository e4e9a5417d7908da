package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// KNN is the evolving K-nearest-neighbor graph G(t) of the paper: a
// directed graph in which every node has at most K out-neighbors (its
// current approximation of the K most similar users). Unlike Digraph it
// enforces the out-degree bound and rejects self-loops and duplicates.
type KNN struct {
	k   int
	nbr [][]uint32
}

// NewKNN returns an empty KNN graph over nodes [0, n) with out-degree
// bound k. k must be positive.
func NewKNN(n, k int) (*KNN, error) {
	if k <= 0 {
		return nil, fmt.Errorf("graph: KNN out-degree bound must be positive, got %d", k)
	}
	return &KNN{k: k, nbr: make([][]uint32, n)}, nil
}

// RandomKNN returns a KNN graph over [0, n) in which every node has
// min(k, n-1) distinct random out-neighbors — the standard random
// initialization of G(0). The result is deterministic for a given rng
// state.
func RandomKNN(n, k int, rng *rand.Rand) (*KNN, error) {
	g, err := NewKNN(n, k)
	if err != nil {
		return nil, err
	}
	if n <= 1 {
		return g, nil
	}
	want := k
	if want > n-1 {
		want = n - 1
	}
	for u := 0; u < n; u++ {
		seen := make(map[uint32]bool, want)
		nbrs := make([]uint32, 0, want)
		for len(nbrs) < want {
			v := uint32(rng.Intn(n))
			if v == uint32(u) || seen[v] {
				continue
			}
			seen[v] = true
			nbrs = append(nbrs, v)
		}
		if err := g.Set(uint32(u), nbrs); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// K reports the out-degree bound.
func (g *KNN) K() int { return g.k }

// NumNodes reports the number of nodes.
func (g *KNN) NumNodes() int { return len(g.nbr) }

// NumEdges reports the number of directed edges.
func (g *KNN) NumEdges() int {
	m := 0
	for _, nbrs := range g.nbr {
		m += len(nbrs)
	}
	return m
}

// Set replaces u's out-neighbor list. The list must contain at most K
// distinct ids, none equal to u, all in range. The list is copied and
// stored sorted by id.
func (g *KNN) Set(u uint32, nbrs []uint32) error {
	if int(u) >= len(g.nbr) {
		return fmt.Errorf("graph: node %d out of range [0,%d)", u, len(g.nbr))
	}
	if len(nbrs) > g.k {
		return fmt.Errorf("graph: node %d given %d neighbors, bound is %d", u, len(nbrs), g.k)
	}
	cp := append([]uint32(nil), nbrs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	for i, v := range cp {
		if int(v) >= len(g.nbr) {
			return fmt.Errorf("graph: neighbor %d of node %d out of range [0,%d)", v, u, len(g.nbr))
		}
		if v == u {
			return fmt.Errorf("graph: node %d cannot be its own neighbor", u)
		}
		if i > 0 && cp[i-1] == v {
			return fmt.Errorf("graph: duplicate neighbor %d for node %d", v, u)
		}
	}
	g.nbr[u] = cp
	return nil
}

// Neighbors returns u's sorted out-neighbor list as a view; callers must
// not mutate it.
func (g *KNN) Neighbors(u uint32) []uint32 {
	if int(u) >= len(g.nbr) {
		return nil
	}
	return g.nbr[u]
}

// Edges returns a copy of all edges in (src, dst) sorted order.
func (g *KNN) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u, nbrs := range g.nbr {
		for _, v := range nbrs {
			edges = append(edges, Edge{Src: uint32(u), Dst: v})
		}
	}
	return edges
}

// Clone returns a deep copy.
func (g *KNN) Clone() *KNN {
	c := &KNN{k: g.k, nbr: make([][]uint32, len(g.nbr))}
	for u, nbrs := range g.nbr {
		if len(nbrs) == 0 {
			continue
		}
		c.nbr[u] = append([]uint32(nil), nbrs...)
	}
	return c
}

// Grow appends extra nodes with empty neighbor lists — the delta
// path's structural half of adding a user (the profile store grows in
// lockstep). Existing edges are untouched; negative extra is ignored.
func (g *KNN) Grow(extra int) {
	for i := 0; i < extra; i++ {
		g.nbr = append(g.nbr, nil)
	}
}

// Digraph converts the KNN graph to a general Digraph.
func (g *KNN) Digraph() *Digraph {
	d := NewDigraph(len(g.nbr))
	for u, nbrs := range g.nbr {
		for _, v := range nbrs {
			d.AddEdge(uint32(u), v)
		}
	}
	return d
}

// DiffEdges reports the number of (directed) edges present in exactly
// one of g and other — the convergence signal used to decide when the
// KNN iteration has stabilized. The graphs must have the same node set.
func (g *KNN) DiffEdges(other *KNN) int {
	diff := 0
	for u := range g.nbr {
		a, b := g.nbr[u], other.nbr[u]
		// Both lists are sorted: merge-count the symmetric difference.
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] == b[j]:
				i++
				j++
			case a[i] < b[j]:
				diff++
				i++
			default:
				diff++
				j++
			}
		}
		diff += len(a) - i + len(b) - j
	}
	return diff
}
