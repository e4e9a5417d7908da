package profile

import "slices"

// Arena stores many profiles back to back in two shared arrays, with
// their norms alongside — the resident form of a partition's profiles.
// Filling it costs a fixed number of allocations however many vectors
// it holds (after Grow, none), and At hands out Vectors that alias the
// arrays, so scoring reads one contiguous block per partition.
//
// The zero Arena is empty and ready to use.
type Arena struct {
	items   []uint32
	weights []float32
	ends    []int // ends[i] is where vector i stops in items and weights
	norms   []float64
}

// Grow makes room for vectors more vectors holding entries more entries
// in total, so that appending them does not allocate.
func (a *Arena) Grow(vectors, entries int) {
	a.items = slices.Grow(a.items, entries)
	a.weights = slices.Grow(a.weights, entries)
	a.ends = slices.Grow(a.ends, vectors)
	a.norms = slices.Grow(a.norms, vectors)
}

// At returns vector i as a view of the arena's storage.
func (a *Arena) At(i int) Vector {
	lo := 0
	if i > 0 {
		lo = a.ends[i-1]
	}
	hi := a.ends[i]
	return Vector{items: a.items[lo:hi:hi], weights: a.weights[lo:hi:hi], norm: a.norms[i]}
}

// Append copies v in as the next vector.
func (a *Arena) Append(v Vector) {
	a.items = append(a.items, v.items...)
	a.weights = append(a.weights, v.weights...)
	a.ends = append(a.ends, len(a.items))
	a.norms = append(a.norms, v.norm)
}

// Decode appends the vector encoded (by Vector.AppendBinary) at the
// front of buf and returns the remaining bytes. On error the arena is
// unchanged.
func (a *Arena) Decode(buf []byte) ([]byte, error) {
	n, rest, err := SkipVector(buf)
	if err != nil {
		return nil, err
	}
	lo := len(a.items)
	a.items = slices.Grow(a.items, n)[:lo+n]
	a.weights = slices.Grow(a.weights, n)[:lo+n]
	norm, err := decodeEntries(buf[4:], a.items[lo:], a.weights[lo:])
	if err != nil {
		a.items, a.weights = a.items[:lo], a.weights[:lo]
		return nil, err
	}
	a.ends = append(a.ends, len(a.items))
	a.norms = append(a.norms, norm)
	return rest, nil
}
