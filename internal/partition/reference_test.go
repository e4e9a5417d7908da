package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"knnpc/internal/graph"
)

// This file keeps Greedy and Objective as they were with Go-map sets,
// so the bitset versions are held to their output.

// mapGreedy is Greedy.Partition with map[uint32]struct{} sets.
func mapGreedy(g *graph.Digraph, m int) (*Assignment, error) {
	n := g.NumNodes()
	if err := checkArgs(n, m); err != nil {
		return nil, err
	}
	per := (n + m - 1) / m
	tr := g.Transpose()

	of := make([]uint32, n)
	sizes := make([]int, m)
	// Per-partition unique in-edge sources and out-edge destinations.
	srcSets := make([]map[uint32]struct{}, m)
	dstSets := make([]map[uint32]struct{}, m)
	for p := 0; p < m; p++ {
		srcSets[p] = make(map[uint32]struct{})
		dstSets[p] = make(map[uint32]struct{})
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
				if _, ok := srcSets[p][s]; !ok {
					delta++
				}
			}
			for _, d := range dests {
				if _, ok := dstSets[p][d]; !ok {
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
			srcSets[best][s] = struct{}{}
		}
		for _, d := range dests {
			dstSets[best][d] = struct{}{}
		}
	}
	return NewAssignment(of, m)
}

func mapObjective(g *graph.Digraph, a *Assignment) int {
	m := a.NumPartitions()
	tr := g.Transpose()
	total := 0
	for p := 0; p < m; p++ {
		srcs := make(map[uint32]struct{})
		dsts := make(map[uint32]struct{})
		for _, v := range a.Members(uint32(p)) {
			for _, s := range tr.OutNeighbors(v) {
				srcs[s] = struct{}{}
			}
			for _, d := range g.OutNeighbors(v) {
				dsts[d] = struct{}{}
			}
		}
		total += len(srcs) + len(dsts)
	}
	return total
}

// TestGreedyBitsetMatchesMapSets runs both versions of Greedy and
// Objective on random KNN-shaped digraphs of three sizes: the
// assignments and the objectives must be identical.
func TestGreedyBitsetMatchesMapSets(t *testing.T) {
	for _, tc := range []struct{ n, k, m int }{{60, 4, 3}, {700, 8, 7}, {4000, 16, 16}} {
		t.Run(fmt.Sprintf("n%d", tc.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)))
			knn, err := graph.RandomKNN(tc.n, tc.k, rng)
			if err != nil {
				t.Fatal(err)
			}
			g := knn.Digraph()
			got, err := Greedy{}.Partition(g, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mapGreedy(g, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("bitset greedy assignment differs from the map version")
			}
			if o, w := Objective(g, got), mapObjective(g, want); o != w {
				t.Fatalf("objective %d, map version %d", o, w)
			}
			if o, w := Objective(g, rangeOf(t, g, tc.m)), mapObjective(g, rangeOf(t, g, tc.m)); o != w {
				t.Fatalf("range objective %d, map version %d", o, w)
			}
		})
	}
}

func rangeOf(t *testing.T, g *graph.Digraph, m int) *Assignment {
	t.Helper()
	a, err := Range{}.Partition(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
