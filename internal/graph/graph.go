// Package graph provides the directed-graph substrate used by the
// out-of-core KNN engine: a mutable adjacency-list graph (Digraph), a
// bounded-out-degree KNN graph (KNN), and text and binary codecs.
//
// Node identifiers are dense uint32 values in [0, NumNodes). All graphs
// are directed; undirected inputs are represented by storing both arcs.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed arc from Src to Dst.
type Edge struct {
	Src uint32
	Dst uint32
}

// Digraph is a mutable directed graph over a fixed node set backed by
// per-node out-adjacency lists. The zero value is an empty graph with no
// nodes; use NewDigraph to create a graph with capacity for n nodes.
//
// Digraph is not safe for concurrent mutation.
type Digraph struct {
	out [][]uint32
	m   int
}

// NewDigraph returns an empty directed graph over nodes [0, n).
func NewDigraph(n int) *Digraph {
	return &Digraph{out: make([][]uint32, n)}
}

// FromEdges builds a Digraph over nodes [0, n) from the given edge list.
// Duplicate edges are collapsed. It returns an error if any endpoint is
// out of range.
func FromEdges(n int, edges []Edge) (*Digraph, error) {
	g := NewDigraph(n)
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, n)
		}
		g.AddEdge(e.Src, e.Dst)
	}
	return g, nil
}

// NumNodes reports the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.out) }

// NumEdges reports the number of directed edges.
func (g *Digraph) NumEdges() int { return g.m }

// HasEdge reports whether the arc (src, dst) is present.
func (g *Digraph) HasEdge(src, dst uint32) bool {
	if int(src) >= len(g.out) {
		return false
	}
	for _, v := range g.out[src] {
		if v == dst {
			return true
		}
	}
	return false
}

// AddEdge inserts the arc (src, dst). It reports whether the edge was
// newly added (false if it already existed). Endpoints must be in range;
// out-of-range endpoints are ignored and reported as not added.
func (g *Digraph) AddEdge(src, dst uint32) bool {
	if int(src) >= len(g.out) || int(dst) >= len(g.out) {
		return false
	}
	if g.HasEdge(src, dst) {
		return false
	}
	g.out[src] = append(g.out[src], dst)
	g.m++
	return true
}

// OutNeighbors returns the out-neighbor list of u. The returned slice is
// a view into the graph's internal storage: callers must not mutate it
// and must not retain it across mutations of the graph.
func (g *Digraph) OutNeighbors(u uint32) []uint32 {
	if int(u) >= len(g.out) {
		return nil
	}
	return g.out[u]
}

// Edges returns a copy of all edges, ordered by source and then by the
// adjacency order.
func (g *Digraph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u, nbrs := range g.out {
		for _, v := range nbrs {
			edges = append(edges, Edge{Src: uint32(u), Dst: v})
		}
	}
	return edges
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{out: make([][]uint32, len(g.out)), m: g.m}
	for u, nbrs := range g.out {
		if len(nbrs) == 0 {
			continue
		}
		c.out[u] = append([]uint32(nil), nbrs...)
	}
	return c
}

// Transpose returns a new graph with every arc reversed.
func (g *Digraph) Transpose() *Digraph {
	t := NewDigraph(len(g.out))
	// Pre-size the reversed adjacency lists to avoid repeated growth.
	indeg := make([]int, len(g.out))
	for _, nbrs := range g.out {
		for _, v := range nbrs {
			indeg[v]++
		}
	}
	for v, d := range indeg {
		if d > 0 {
			t.out[v] = make([]uint32, 0, d)
		}
	}
	for u, nbrs := range g.out {
		for _, v := range nbrs {
			t.out[v] = append(t.out[v], uint32(u))
		}
	}
	t.m = g.m
	return t
}

// SortAdjacency sorts every out-neighbor list in ascending id order,
// which makes iteration order deterministic.
func (g *Digraph) SortAdjacency() {
	for _, nbrs := range g.out {
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	}
}

// InDegrees returns the in-degree of every node.
func (g *Digraph) InDegrees() []int {
	degs := make([]int, len(g.out))
	for _, nbrs := range g.out {
		for _, v := range nbrs {
			degs[v]++
		}
	}
	return degs
}

// TotalDegrees returns in-degree plus out-degree for every node.
func (g *Digraph) TotalDegrees() []int {
	degs := g.InDegrees()
	for u := range g.out {
		degs[u] += len(g.out[u])
	}
	return degs
}
