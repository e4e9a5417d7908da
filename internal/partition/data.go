package partition

import (
	"cmp"
	"encoding/binary"
	"fmt"
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

// ByteSize reports the encoded size of the partition data.
func (p *Data) ByteSize() int {
	return 4 + 4 + 4 + 4 + // id + 3 counts
		4*len(p.Members) + 8*len(p.InEdges) + 8*len(p.OutEdges)
}

// AppendBinary appends the partition's binary encoding to buf. Layout:
// id, member count, in-edge count, out-edge count (uint32 each), then
// members, in-edge pairs, out-edge pairs, little endian.
func (p *Data) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, p.ID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Members)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.InEdges)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.OutEdges)))
	for _, v := range p.Members {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	for _, e := range p.InEdges {
		buf = binary.LittleEndian.AppendUint32(buf, e.Src)
		buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
	}
	for _, e := range p.OutEdges {
		buf = binary.LittleEndian.AppendUint32(buf, e.Src)
		buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
	}
	return buf
}

// DecodeData decodes a partition from the front of buf, returning the
// partition and the remaining bytes.
func DecodeData(buf []byte) (*Data, []byte, error) {
	if len(buf) < 16 {
		return nil, nil, fmt.Errorf("partition: short header (%d bytes)", len(buf))
	}
	p := &Data{ID: binary.LittleEndian.Uint32(buf)}
	nMem := int(binary.LittleEndian.Uint32(buf[4:]))
	nIn := int(binary.LittleEndian.Uint32(buf[8:]))
	nOut := int(binary.LittleEndian.Uint32(buf[12:]))
	buf = buf[16:]
	need := 4*nMem + 8*nIn + 8*nOut
	if len(buf) < need {
		return nil, nil, fmt.Errorf("partition: payload truncated: need %d bytes, have %d", need, len(buf))
	}
	p.Members = make([]uint32, nMem)
	for i := range p.Members {
		p.Members[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	buf = buf[4*nMem:]
	p.InEdges = decodeEdges(buf, nIn)
	buf = buf[8*nIn:]
	p.OutEdges = decodeEdges(buf, nOut)
	buf = buf[8*nOut:]
	return p, buf, nil
}

func decodeEdges(buf []byte, n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: binary.LittleEndian.Uint32(buf[8*i:]),
			Dst: binary.LittleEndian.Uint32(buf[8*i+4:]),
		}
	}
	return edges
}
