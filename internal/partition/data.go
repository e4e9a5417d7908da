package partition

import (
	"cmp"
	"slices"

	"knnpc/internal/graph"
)

// Data is the materialized content of one partition Ri: its member set
// Vi plus the in-edges {(s,v) : v ∈ Vi} and out-edges {(v,d) : v ∈ Vi},
// each sorted by the member vertex v. With both lists sorted by v, the
// neighbors'-neighbors tuples (s,d) bridged by v are generated by one
// sequential merge pass (phase 2 reads these files sequentially).
type Data struct {
	ID      uint32
	Members []uint32 // sorted ascending
	// InEdges are (s, v) pairs with v ∈ Members, sorted by v then s.
	InEdges []graph.Edge
	// OutEdges are (v, d) pairs with v ∈ Members, sorted by v then d.
	OutEdges []graph.Edge
}

// Build materializes every partition of g under the assignment:
// phase 1's output. Edge lists are sorted by the member (bridge) vertex.
func Build(g *graph.Digraph, a *Assignment) []*Data {
	m := a.NumPartitions()
	parts := make([]*Data, m)
	for p := 0; p < m; p++ {
		parts[p] = &Data{
			ID:      uint32(p),
			Members: append([]uint32(nil), a.Members(uint32(p))...),
		}
	}
	for _, e := range g.Edges() {
		ps := a.Of(e.Src)
		pd := a.Of(e.Dst)
		// (src → dst): out-edge of src's partition, in-edge of dst's.
		parts[ps].OutEdges = append(parts[ps].OutEdges, e)
		parts[pd].InEdges = append(parts[pd].InEdges, e)
	}
	for _, part := range parts {
		sortByBridge(part)
	}
	return parts
}

func sortByBridge(p *Data) {
	slices.SortFunc(p.InEdges, func(a, b graph.Edge) int { // bridge of an in-edge (s,v) is v = Dst
		return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
	})
	slices.SortFunc(p.OutEdges, func(a, b graph.Edge) int { // bridge of an out-edge (v,d) is v = Src
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
}
