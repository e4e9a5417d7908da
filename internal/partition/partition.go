// Package partition implements phase 1 of the paper: dividing the KNN
// graph G(t) into m partitions so that "only a few small pieces of the
// graph as well as related data structures can be stored in memory at
// any given point in time".
//
// A partition Ri holds a subset Vi of users, the in-edges and out-edges
// of those users (sorted by the member vertex v, so neighbors'-neighbors
// tuples can be generated by a sequential merge), and the members'
// profiles. The paper's partitioning criterion minimizes
// Σ_i (N_in_i + N_out_i), the per-partition counts of unique in-edge
// source vertices and unique out-edge destination vertices.
package partition

import (
	"fmt"
	"sort"

	"knnpc/internal/graph"
)

// Assignment maps every node of G(t) to one of m partitions.
type Assignment struct {
	of      []uint32
	members [][]uint32
	// ordinal[u] is u's index in members[of[u]]: member lists are
	// ascending, so it is also u's rank within its partition, and
	// per-member arrays laid out in member order are indexed by it.
	ordinal []uint32
}

// NewAssignment builds an Assignment from a node→partition table. Every
// entry must be < m.
func NewAssignment(of []uint32, m int) (*Assignment, error) {
	if m <= 0 {
		return nil, fmt.Errorf("partition: need at least 1 partition, got %d", m)
	}
	members := make([][]uint32, m)
	ordinal := make([]uint32, len(of))
	for u, p := range of {
		if int(p) >= m {
			return nil, fmt.Errorf("partition: node %d assigned to partition %d, only %d exist", u, p, m)
		}
		ordinal[u] = uint32(len(members[p]))
		members[p] = append(members[p], uint32(u))
	}
	cp := append([]uint32(nil), of...)
	return &Assignment{of: cp, members: members, ordinal: ordinal}, nil
}

// NumPartitions reports m.
func (a *Assignment) NumPartitions() int { return len(a.members) }

// NumNodes reports the number of assigned nodes.
func (a *Assignment) NumNodes() int { return len(a.of) }

// Of returns the partition of node u.
func (a *Assignment) Of(u uint32) uint32 { return a.of[u] }

// Ordinal returns the index of node u in Members(Of(u)).
func (a *Assignment) Ordinal(u uint32) int { return int(a.ordinal[u]) }

// Members returns the sorted member list of partition p as a view;
// callers must not mutate it.
func (a *Assignment) Members(p uint32) []uint32 { return a.members[p] }

// Sizes returns the member count of every partition.
func (a *Assignment) Sizes() []int {
	sizes := make([]int, len(a.members))
	for p, mem := range a.members {
		sizes[p] = len(mem)
	}
	return sizes
}

// Partitioner splits the nodes of a directed graph into m partitions.
type Partitioner interface {
	// Partition assigns every node of g to one of m partitions.
	Partition(g *graph.Digraph, m int) (*Assignment, error)
	// Name identifies the strategy in logs and experiment output.
	Name() string
}

// Range assigns contiguous id blocks of ⌈n/m⌉ nodes — the paper's
// baseline of "a fixed number of users n/m" per partition.
type Range struct{}

// Name implements Partitioner.
func (Range) Name() string { return "range" }

// Partition implements Partitioner.
func (Range) Partition(g *graph.Digraph, m int) (*Assignment, error) {
	n := g.NumNodes()
	if err := checkArgs(n, m); err != nil {
		return nil, err
	}
	per := (n + m - 1) / m
	of := make([]uint32, n)
	for u := 0; u < n; u++ {
		of[u] = uint32(u / per)
	}
	return NewAssignment(of, m)
}

// Hash assigns node u to partition u mod m, spreading ids evenly with
// no locality — a worst-case-ish baseline for the objective.
type Hash struct{}

// Name implements Partitioner.
func (Hash) Name() string { return "hash" }

// Partition implements Partitioner.
func (Hash) Partition(g *graph.Digraph, m int) (*Assignment, error) {
	n := g.NumNodes()
	if err := checkArgs(n, m); err != nil {
		return nil, err
	}
	of := make([]uint32, n)
	for u := 0; u < n; u++ {
		of[u] = uint32(u % m)
	}
	return NewAssignment(of, m)
}

// Greedy streams nodes and places each into the partition (with
// capacity left) whose unique-source/unique-destination sets grow the
// least — a direct greedy minimization of the paper's criterion
// min Σ_i (N_in_i + N_out_i). Capacity is ⌈n/m⌉, preserving the paper's
// equal-size partitions.
type Greedy struct{}

// Name implements Partitioner.
func (Greedy) Name() string { return "greedy" }

// Partition implements Partitioner.
func (Greedy) Partition(g *graph.Digraph, m int) (*Assignment, error) {
	n := g.NumNodes()
	if err := checkArgs(n, m); err != nil {
		return nil, err
	}
	per := (n + m - 1) / m
	tr := g.Transpose()

	of := make([]uint32, n)
	sizes := make([]int, m)
	// Per-partition unique in-edge sources and out-edge destinations,
	// one bit per node.
	srcSets := make([]graph.NodeSet, m)
	dstSets := make([]graph.NodeSet, m)
	for p := 0; p < m; p++ {
		srcSets[p] = make(graph.NodeSet, (n+63)/64)
		dstSets[p] = make(graph.NodeSet, (n+63)/64)
	}

	// Visit nodes in descending total degree so high-impact nodes are
	// placed while all partitions still have room to specialize.
	order := make([]uint32, n)
	for u := range order {
		order[u] = uint32(u)
	}
	degs := g.TotalDegrees()
	sort.SliceStable(order, func(i, j int) bool { return degs[order[i]] > degs[order[j]] })

	for _, u := range order {
		sources := tr.OutNeighbors(u) // s with (s, u) ∈ E
		dests := g.OutNeighbors(u)    // d with (u, d) ∈ E
		best, bestDelta := -1, int(^uint(0)>>1)
		for p := 0; p < m; p++ {
			if sizes[p] >= per {
				continue
			}
			delta := 0
			for _, s := range sources {
				if !srcSets[p].Has(s) {
					delta++
				}
			}
			for _, d := range dests {
				if !dstSets[p].Has(d) {
					delta++
				}
			}
			// Prefer the emptier partition on ties to keep loads even.
			if delta < bestDelta || (delta == bestDelta && best >= 0 && sizes[p] < sizes[best]) {
				best, bestDelta = p, delta
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("partition: greedy ran out of capacity (n=%d m=%d per=%d)", n, m, per)
		}
		of[u] = uint32(best)
		sizes[best]++
		for _, s := range sources {
			srcSets[best].Add(s)
		}
		for _, d := range dests {
			dstSets[best].Add(d)
		}
	}
	return NewAssignment(of, m)
}

// Objective evaluates the paper's criterion Σ_i (N_in_i + N_out_i) for
// an assignment: for each partition, the number of unique source
// vertices over its members' in-edges plus the number of unique
// destination vertices over its members' out-edges.
func Objective(g *graph.Digraph, a *Assignment) int {
	m := a.NumPartitions()
	tr := g.Transpose()
	srcs := make(graph.NodeSet, (g.NumNodes()+63)/64)
	dsts := make(graph.NodeSet, (g.NumNodes()+63)/64)
	total := 0
	for p := 0; p < m; p++ {
		clear(srcs)
		clear(dsts)
		for _, v := range a.Members(uint32(p)) {
			for _, s := range tr.OutNeighbors(v) {
				if !srcs.Has(s) {
					srcs.Add(s)
					total++
				}
			}
			for _, d := range g.OutNeighbors(v) {
				if !dsts.Has(d) {
					dsts.Add(d)
					total++
				}
			}
		}
	}
	return total
}

// ByName returns a partitioner by its Name, reporting false for unknown
// names.
func ByName(name string) (Partitioner, bool) {
	switch name {
	case "range":
		return Range{}, true
	case "hash":
		return Hash{}, true
	case "greedy":
		return Greedy{}, true
	default:
		return nil, false
	}
}

func checkArgs(n, m int) error {
	if m <= 0 {
		return fmt.Errorf("partition: need at least 1 partition, got %d", m)
	}
	if n == 0 {
		return fmt.Errorf("partition: graph has no nodes")
	}
	if m > n {
		return fmt.Errorf("partition: more partitions (%d) than nodes (%d)", m, n)
	}
	return nil
}

var (
	_ Partitioner = Range{}
	_ Partitioner = Hash{}
	_ Partitioner = Greedy{}
)
