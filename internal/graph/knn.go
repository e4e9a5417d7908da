package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// KNN is the evolving K-nearest-neighbor graph G(t) of the paper: a
// directed graph in which every node has at most K out-neighbors (its
// current approximation of the K most similar users). Unlike Digraph it
// enforces the out-degree bound and rejects self-loops and duplicates.
//
// A row may carry its neighbors' scores beside their ids, so a reader
// that ranks a row against a new candidate compares stored scores
// instead of rescoring profiles. Rows the graph was given without
// scores (a random G(0), a warm start) hold none, and Scores reports
// nil for them. What a score means is the caller's: the engine keeps
// each one equal to the similarity of the two committed profiles.
type KNN struct {
	k    int
	rows []row
	// slabIDs and slabScores back the rows Emit writes on a graph
	// NewScoredKNN made: row u at offset u·K in each. A clone does not
	// inherit them.
	slabIDs    []uint32
	slabScores []float64
}

// row is one node's out-list: ids ascending, and scores[i] the score of
// ids[i], or nil for a row held without scores. Rows are immutable once
// installed: Set, SetScored and Emit install new ones, and clones share
// them.
type row struct {
	ids    []uint32
	scores []float64
}

// NewKNN returns an empty KNN graph over nodes [0, n) with out-degree
// bound k. k must be positive.
func NewKNN(n, k int) (*KNN, error) {
	if k <= 0 {
		return nil, fmt.Errorf("graph: KNN out-degree bound must be positive, got %d", k)
	}
	return &KNN{k: k, rows: make([]row, n)}, nil
}

// NewScoredKNN is NewKNN for a graph whose rows are written once each by
// Emit, with their scores — G(t+1) as phase 4 emits it. The rows are
// carved from one id slab and one score slab, row u at offset u·K, so
// they cost two allocations however many there are, and concurrent
// Emits for distinct rows write disjoint memory.
func NewScoredKNN(n, k int) (*KNN, error) {
	g, err := NewKNN(n, k)
	if err != nil {
		return nil, err
	}
	g.slabIDs = make([]uint32, n*k)
	g.slabScores = make([]float64, n*k)
	return g, nil
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
func (g *KNN) NumNodes() int { return len(g.rows) }

// NumEdges reports the number of directed edges.
func (g *KNN) NumEdges() int {
	m := 0
	for _, r := range g.rows {
		m += len(r.ids)
	}
	return m
}

// Set replaces u's out-neighbor list with one holding no scores. The
// list must contain at most K distinct ids, none equal to u, all in
// range. The list is copied and stored sorted by id; the copy is Set's
// one allocation. Calls for distinct nodes may run concurrently: each
// writes only its node's row.
func (g *KNN) Set(u uint32, nbrs []uint32) error {
	cp := append([]uint32(nil), nbrs...)
	slices.Sort(cp)
	if err := g.check(u, cp, nil); err != nil {
		return err
	}
	g.rows[u] = row{ids: cp}
	return nil
}

// SetScored replaces u's out-neighbor list with nbrs, which must ascend
// by id, and their scores: scores[i] is nbrs[i]'s, and nil stores the
// row without scores. Both are copied. Otherwise it is Set.
func (g *KNN) SetScored(u uint32, nbrs []uint32, scores []float64) error {
	if err := g.check(u, nbrs, scores); err != nil {
		return err
	}
	g.rows[u] = row{ids: slices.Clone(nbrs), scores: slices.Clone(scores)}
	return nil
}

// Emit is SetScored for a row written once into a graph NewScoredKNN
// made: the row is copied into the slabs at u·K, so it allocates
// nothing. A row already emitted, or set with neighbors, is refused, so
// no slab region is written twice (a clone may share what it holds);
// calls for distinct nodes may run concurrently.
func (g *KNN) Emit(u uint32, nbrs []uint32, scores []float64) error {
	if err := g.check(u, nbrs, scores); err != nil {
		return err
	}
	off := int(u) * g.k
	if off+g.k > len(g.slabIDs) {
		return fmt.Errorf("graph: node %d has no slab row to emit into", u)
	}
	if g.rows[u].ids != nil {
		return fmt.Errorf("graph: node %d already written", u)
	}
	r := row{ids: append(g.slabIDs[off:off:off+g.k], nbrs...)}
	if scores != nil {
		r.scores = append(g.slabScores[off:off:off+g.k], scores...)
	}
	g.rows[u] = r
	return nil
}

// check validates a row for u: at most K ids, ascending, none equal to
// u, all in range, and scores either nil or one per id.
func (g *KNN) check(u uint32, nbrs []uint32, scores []float64) error {
	if int(u) >= len(g.rows) {
		return fmt.Errorf("graph: node %d out of range [0,%d)", u, len(g.rows))
	}
	if len(nbrs) > g.k {
		return fmt.Errorf("graph: node %d given %d neighbors, bound is %d", u, len(nbrs), g.k)
	}
	if scores != nil && len(scores) != len(nbrs) {
		return fmt.Errorf("graph: node %d given %d neighbors and %d scores", u, len(nbrs), len(scores))
	}
	for i, v := range nbrs {
		if int(v) >= len(g.rows) {
			return fmt.Errorf("graph: neighbor %d of node %d out of range [0,%d)", v, u, len(g.rows))
		}
		if v == u {
			return fmt.Errorf("graph: node %d cannot be its own neighbor", u)
		}
		if i > 0 && nbrs[i-1] >= v {
			if nbrs[i-1] == v {
				return fmt.Errorf("graph: duplicate neighbor %d for node %d", v, u)
			}
			return fmt.Errorf("graph: neighbors of node %d not ascending at %d", u, v)
		}
	}
	return nil
}

// Neighbors returns u's sorted out-neighbor list as a view; callers must
// not mutate it.
func (g *KNN) Neighbors(u uint32) []uint32 {
	if int(u) >= len(g.rows) {
		return nil
	}
	return g.rows[u].ids
}

// Scores returns the scores of u's out-neighbors, in Neighbors' order,
// as a view callers must not mutate; nil when the row holds none.
func (g *KNN) Scores(u uint32) []float64 {
	if int(u) >= len(g.rows) {
		return nil
	}
	return g.rows[u].scores
}

// Edges returns a copy of all edges in (src, dst) sorted order.
func (g *KNN) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u, r := range g.rows {
		for _, v := range r.ids {
			edges = append(edges, Edge{Src: uint32(u), Dst: v})
		}
	}
	return edges
}

// Clone returns an independent copy: Set and Grow on either graph leave
// the other unchanged. Rows are immutable — Set installs a fresh copy
// and Neighbors hands out read-only views — so the clone shares them
// and copies only the row table, one allocation however many nodes.
func (g *KNN) Clone() *KNN {
	return &KNN{k: g.k, rows: slices.Clone(g.rows)}
}

// CloneInto is Clone into dst's row table, which it reuses when it has
// room: dst becomes the copy and is returned, and nothing may still read
// it as the graph it was. A nil dst allocates, as Clone does.
func (g *KNN) CloneInto(dst *KNN) *KNN {
	if dst == nil {
		return g.Clone()
	}
	dst.k = g.k
	dst.rows = append(dst.rows[:0], g.rows...)
	clear(dst.rows[len(dst.rows):cap(dst.rows)]) // let the old rows go
	dst.slabIDs, dst.slabScores = nil, nil
	return dst
}

// Grow appends extra nodes with empty neighbor lists — the delta
// path's structural half of adding a user (the profile store grows in
// lockstep). Existing edges are untouched; negative extra is ignored.
func (g *KNN) Grow(extra int) {
	for i := 0; i < extra; i++ {
		g.rows = append(g.rows, row{})
	}
}

// Digraph converts the KNN graph to a general Digraph.
func (g *KNN) Digraph() *Digraph {
	d := NewDigraph(len(g.rows))
	for u, r := range g.rows {
		for _, v := range r.ids {
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
	for u := range g.rows {
		a, b := g.rows[u].ids, other.rows[u].ids
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
