package graph

import "math/bits"

// NodeSet is a dense set of node ids, one bit per id: a probe is a
// shift and a mask, and a copy is n/64 words. The zero NodeSet is
// empty, and Has reports false for ids beyond its length, so a set
// grows only as far as its largest member.
type NodeSet []uint64

// Has reports whether u is in the set.
func (s NodeSet) Has(u uint32) bool {
	w := int(u >> 6)
	return w < len(s) && s[w]&(1<<(u&63)) != 0
}

// Add inserts u, growing the set as needed.
func (s *NodeSet) Add(u uint32) {
	w := int(u >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (u & 63)
}

// Remove deletes u; removing an absent id is a no-op.
func (s NodeSet) Remove(u uint32) {
	if w := int(u >> 6); w < len(s) {
		s[w] &^= 1 << (u & 63)
	}
}

// Len reports the number of members.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy.
func (s NodeSet) Clone() NodeSet { return append(NodeSet(nil), s...) }
