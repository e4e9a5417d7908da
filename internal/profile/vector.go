// Package profile implements the user-profile substrate P(t) of the
// paper: sparse profile vectors, the similarity measures sim(s, d) used
// by the KNN phase, an in-memory profile store, and the lazy update
// queue q that defers profile changes to the end of an iteration
// (phase 5).
package profile

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Entry is one (item, weight) pair of a sparse profile vector.
type Entry struct {
	Item   uint32
	Weight float32
}

// Vector is an immutable sparse profile: the set of items a user has
// interacted with, each with a weight (e.g. a rating or a term
// frequency). Entries are stored sorted by item id, which lets
// similarity computations run as linear merges.
//
// The zero Vector is a valid empty profile. Vectors share underlying
// storage when copied; all mutating operations return new Vectors.
//
// The Euclidean norm is computed once, wherever a Vector is built or
// decoded, and travels with it: similarity measures read it per scored
// pair, so recomputing it there would cost a pass over both profiles.
type Vector struct {
	items   []uint32
	weights []float32
	norm    float64
}

// normOf is the one place the norm is computed, so every Vector holding
// the same weights carries the same bits.
func normOf(weights []float32) float64 {
	var sum float64
	for _, w := range weights {
		sum += float64(w) * float64(w)
	}
	return math.Sqrt(sum)
}

// NewVector builds a Vector from entries. Entries are sorted by item;
// duplicate items are rejected.
func NewVector(entries []Entry) (Vector, error) {
	if len(entries) == 0 {
		return Vector{}, nil
	}
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Item < sorted[j].Item })
	v := Vector{
		items:   make([]uint32, len(sorted)),
		weights: make([]float32, len(sorted)),
	}
	for i, e := range sorted {
		if i > 0 && sorted[i-1].Item == e.Item {
			return Vector{}, fmt.Errorf("profile: duplicate item %d", e.Item)
		}
		v.items[i] = e.Item
		v.weights[i] = e.Weight
	}
	v.norm = normOf(v.weights)
	return v, nil
}

// FromItems builds a Vector of the given items, all with weight 1 — the
// set-profile form used with Jaccard-style similarities. Duplicates are
// collapsed.
func FromItems(items []uint32) Vector {
	if len(items) == 0 {
		return Vector{}
	}
	sorted := append([]uint32(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	v := Vector{items: sorted[:1], weights: []float32{1}}
	for _, it := range sorted[1:] {
		if v.items[len(v.items)-1] == it {
			continue
		}
		v.items = append(v.items, it)
		v.weights = append(v.weights, 1)
	}
	v.norm = normOf(v.weights)
	return v
}

// Len reports the number of items in the profile.
func (v Vector) Len() int { return len(v.items) }

// Entries returns a copy of the profile's entries in item order.
func (v Vector) Entries() []Entry {
	out := make([]Entry, len(v.items))
	for i := range v.items {
		out[i] = Entry{Item: v.items[i], Weight: v.weights[i]}
	}
	return out
}

// Weight returns the weight of item, and whether the item is present.
func (v Vector) Weight(item uint32) (float32, bool) {
	i := sort.Search(len(v.items), func(i int) bool { return v.items[i] >= item })
	if i < len(v.items) && v.items[i] == item {
		return v.weights[i], true
	}
	return 0, false
}

// Norm returns the Euclidean norm of the vector.
func (v Vector) Norm() float64 { return v.norm }

// shape is what a similarity measure reads of v besides the items it
// shares with the other side.
func (v Vector) shape() shape { return shape{norm: v.norm, n: len(v.items)} }

// Dot returns the inner product of two vectors via a linear merge.
func (v Vector) Dot(o Vector) float64 {
	var (
		dot  float64
		i, j int
	)
	for i < len(v.items) && j < len(o.items) {
		switch {
		case v.items[i] == o.items[j]:
			dot += float64(v.weights[i]) * float64(o.weights[j])
			i++
			j++
		case v.items[i] < o.items[j]:
			i++
		default:
			j++
		}
	}
	return dot
}

// IntersectionSize reports the number of items shared by both profiles.
func (v Vector) IntersectionSize(o Vector) int {
	var n, i, j int
	for i < len(v.items) && j < len(o.items) {
		switch {
		case v.items[i] == o.items[j]:
			n++
			i++
			j++
		case v.items[i] < o.items[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// WithItem returns a copy of v with item set to weight (inserted or
// updated).
func (v Vector) WithItem(item uint32, weight float32) Vector {
	i := sort.Search(len(v.items), func(i int) bool { return v.items[i] >= item })
	out := Vector{
		items:   make([]uint32, 0, len(v.items)+1),
		weights: make([]float32, 0, len(v.items)+1),
	}
	out.items = append(out.items, v.items[:i]...)
	out.weights = append(out.weights, v.weights[:i]...)
	out.items = append(out.items, item)
	out.weights = append(out.weights, weight)
	if i < len(v.items) && v.items[i] == item {
		i++ // replace existing entry
	}
	out.items = append(out.items, v.items[i:]...)
	out.weights = append(out.weights, v.weights[i:]...)
	out.norm = normOf(out.weights)
	return out
}

// WithoutItem returns a copy of v with item removed (no-op if absent).
func (v Vector) WithoutItem(item uint32) Vector {
	i := sort.Search(len(v.items), func(i int) bool { return v.items[i] >= item })
	if i >= len(v.items) || v.items[i] != item {
		return v
	}
	out := Vector{
		items:   make([]uint32, 0, len(v.items)-1),
		weights: make([]float32, 0, len(v.items)-1),
	}
	out.items = append(out.items, v.items[:i]...)
	out.weights = append(out.weights, v.weights[:i]...)
	out.items = append(out.items, v.items[i+1:]...)
	out.weights = append(out.weights, v.weights[i+1:]...)
	out.norm = normOf(out.weights)
	return out
}

// Equal reports whether two vectors hold identical entries.
func (v Vector) Equal(o Vector) bool {
	if len(v.items) != len(o.items) {
		return false
	}
	for i := range v.items {
		if v.items[i] != o.items[i] || v.weights[i] != o.weights[i] {
			return false
		}
	}
	return true
}

// ByteSize reports the encoded size of the vector in bytes, used for
// memory-budget accounting.
func (v Vector) ByteSize() int { return 4 + 8*len(v.items) }

// AppendBinary appends the vector's binary encoding to buf and returns
// the extended slice. Layout: count uint32, then count × (item uint32,
// weight float32 bits), little endian.
func (v Vector) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.items)))
	for i := range v.items {
		buf = binary.LittleEndian.AppendUint32(buf, v.items[i])
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v.weights[i]))
	}
	return buf
}

// SkipVector steps over the vector encoded at the front of buf without
// decoding it, returning its entry count and the remaining bytes.
// Decoders of containers use it to size their storage in one pass.
func SkipVector(buf []byte) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("profile: short vector header (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf)/8 < n {
		return 0, nil, fmt.Errorf("profile: vector payload truncated: want %d entries, have %d bytes", n, len(buf))
	}
	return n, buf[8*n:], nil
}

// decodeEntries fills items and weights (equal lengths) from the
// encoded entries at the front of buf, which the caller has checked is
// long enough, and returns the norm of the weights.
func decodeEntries(buf []byte, items []uint32, weights []float32) (float64, error) {
	for i := range items {
		it := binary.LittleEndian.Uint32(buf[8*i:])
		if i > 0 && it <= items[i-1] {
			return 0, fmt.Errorf("profile: decoded items not strictly increasing at index %d", i)
		}
		items[i] = it
		weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[8*i+4:]))
	}
	return normOf(weights), nil
}

// DecodeVector decodes a vector produced by AppendBinary from the front
// of buf, returning the vector and the remaining bytes.
func DecodeVector(buf []byte) (Vector, []byte, error) {
	n, rest, err := SkipVector(buf)
	if err != nil {
		return Vector{}, nil, err
	}
	v := Vector{
		items:   make([]uint32, n),
		weights: make([]float32, n),
	}
	if v.norm, err = decodeEntries(buf[4:], v.items, v.weights); err != nil {
		return Vector{}, nil, err
	}
	return v, rest, nil
}
