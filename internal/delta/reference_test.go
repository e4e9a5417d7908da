package delta

import (
	"fmt"
	"sort"

	"knnpc/internal/graph"
)

// This file keeps the one-user strip as it was before RemoveRun
// stripped a run in one scan: the differential test holds the current
// code to its output, bit for bit.

// refRemove strips one user with a binary search of every list.
func refRemove(g *graph.KNN, u uint32) ([]uint32, error) {
	var touched []uint32
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if uint32(v) == u {
			continue
		}
		nbrs := g.Neighbors(uint32(v))
		i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= u })
		if i >= len(nbrs) || nbrs[i] != u {
			continue
		}
		next := make([]uint32, 0, len(nbrs)-1)
		next = append(next, nbrs[:i]...)
		next = append(next, nbrs[i+1:]...)
		if err := g.Set(uint32(v), next); err != nil {
			return touched, fmt.Errorf("delta: strip %d from %d: %w", u, v, err)
		}
		touched = append(touched, uint32(v))
	}
	if len(g.Neighbors(u)) > 0 {
		if err := g.Set(u, nil); err != nil {
			return touched, fmt.Errorf("delta: clear %d: %w", u, err)
		}
	}
	return touched, nil
}
