// Package pigraph implements phase 3 of the paper: the partition
// interaction (PI) graph and the traversal heuristics that decide the
// order in which partitions are loaded into the in-memory slots (two
// in the paper; the executor generalizes to an S-slot budget with
// optional asynchronous lookahead prefetch — see ExecOptions).
//
// A PI-graph node is a partition Ri; an edge {Ri, Rj} exists when the
// hash table H holds tuples whose endpoints lie in Ri and Rj. Computing
// the similarity scores of those tuples requires both partitions
// resident, and memory holds at most two partitions, so the traversal
// order determines the number of load/unload operations — the quantity
// the paper's Table 1 reports for its three heuristics (sequential,
// degree high→low, degree low→high).
//
// The paper's PI edges are directed ((Ri,Rj) = tuples with s∈Ri, d∈Rj),
// but the load/unload cost depends only on the unordered pair: with Ri
// and Rj both resident, both directions' tuples are processed together
// — H keeps them in one shard {i, j}. The PIGraph here therefore merges
// directions; reciprocal directed pairs collapse into one undirected
// edge.
package pigraph

import (
	"fmt"
	"sort"

	"knnpc/internal/graph"
	"knnpc/internal/tuples"
)

// PIGraph is an undirected weighted graph over the m partitions, plus
// per-partition self weights for tuples whose endpoints share one
// partition (those need no second slot).
type PIGraph struct {
	adj   []map[uint32]int64
	self  []int64
	edges int
}

// New returns an empty PI graph over m partitions.
func New(m int) *PIGraph {
	adj := make([]map[uint32]int64, m)
	for i := range adj {
		adj[i] = make(map[uint32]int64)
	}
	return &PIGraph{adj: adj, self: make([]int64, m)}
}

// AddShard accumulates the weight (tuple count) of shard (i, j) onto
// the undirected PI edge {i, j}, or onto the self weight when i == j.
// The shard may be directed or already unordered — either orientation
// lands on the same edge, so adding (i, j) and (j, i) sums them.
// Endpoints must be in range.
func (g *PIGraph) AddShard(i, j uint32, weight int64) error {
	m := len(g.adj)
	if int(i) >= m || int(j) >= m {
		return fmt.Errorf("pigraph: shard (%d,%d) out of range [0,%d)", i, j, m)
	}
	if weight <= 0 {
		return nil
	}
	if i == j {
		g.self[i] += weight
		return nil
	}
	if _, exists := g.adj[i][j]; !exists {
		g.edges++
	}
	g.adj[i][j] += weight
	g.adj[j][i] += weight
	return nil
}

// FromTupleCounts builds the PI graph of an iteration from the hash
// table's shard census — the undirected one H reports, one count per
// {I ≤ J}; a directed census (both (i, j) and (j, i) keyed) builds the
// identical graph, since AddShard sums both directions into one edge.
func FromTupleCounts(m int, counts map[tuples.ShardID]int64) (*PIGraph, error) {
	g := New(m)
	// Deterministic insertion order (map iteration is random).
	ids := make([]tuples.ShardID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].I != ids[b].I {
			return ids[a].I < ids[b].I
		}
		return ids[a].J < ids[b].J
	})
	for _, id := range ids {
		if err := g.AddShard(id.I, id.J, counts[id]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// FromDigraph treats an arbitrary directed graph as PI-graph structure,
// with every arc weighing one tuple — the setting of the paper's
// Table 1, which evaluates the heuristics on six real network topologies
// "if the PI graph structure were to resemble these networks".
// Reciprocal arcs merge into one undirected edge; self-loops become
// self weights.
func FromDigraph(dg *graph.Digraph) (*PIGraph, error) {
	g := New(dg.NumNodes())
	for _, e := range dg.Edges() {
		if err := g.AddShard(e.Src, e.Dst, 1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// NumPartitions reports the number of PI-graph nodes.
func (g *PIGraph) NumPartitions() int { return len(g.adj) }

// NumEdges reports the number of undirected PI edges.
func (g *PIGraph) NumEdges() int { return g.edges }

// Degree reports the number of distinct PI neighbors of partition i.
func (g *PIGraph) Degree(i uint32) int { return len(g.adj[i]) }

// Weight reports the tuple weight on the undirected edge {i, j} (0 when
// absent), or the self weight when i == j.
func (g *PIGraph) Weight(i, j uint32) int64 {
	if i == j {
		return g.self[i]
	}
	return g.adj[i][j]
}

// SelfWeight reports the self-shard tuple weight of partition i.
func (g *PIGraph) SelfWeight(i uint32) int64 { return g.self[i] }

// Neighbors returns the sorted PI neighbors of partition i.
func (g *PIGraph) Neighbors(i uint32) []uint32 {
	out := make([]uint32, 0, len(g.adj[i]))
	for j := range g.adj[i] {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
