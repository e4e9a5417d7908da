package profile

import "math/bits"

// Source scores one profile against many others — the shape of a
// phase-4 tuple shard, which is sorted by (S, D) so each source meets a
// run of destinations. Reset expands the source into a direct-mapped
// table once; Score then finds the shared items with one probe per
// destination item instead of a two-way merge over both profiles.
//
// Score(d) returns exactly Similarity.Score(source, d), bit for bit:
// the shared items are visited in ascending item order (the
// destination's own order), so a dot product adds the same products in
// the same sequence as Vector.Dot, and the result goes through the
// measure's one formula. A measure that offers only Score is called
// through it, with no table.
//
// A Source is scratch owned by one goroutine; its memory is a small
// multiple of the largest source profile it has seen.
type Source struct {
	sim  Similarity
	kern sourceScorer // nil: sim offers nothing but Score
	src  Vector

	// slots is the direct-mapped table: slot hash(item) holds the
	// index of that item in src. Unclaimed slots hold 0, which is a
	// claim by src.items[0] — harmless, because a probe for that item
	// only ever reads its own home slot, where the claim is true. So
	// one compare against src.items decides hit or miss, with no empty
	// marker to collide with an item id.
	slots []uint32
	shift uint32
	// spill lists, ascending, the indices of source items whose home
	// slot was already claimed. The table is sized so that this is
	// short; it keeps the table's memory linear in the profile however
	// the item ids fall.
	spill []uint32
}

// sourceScorer is implemented by measures that are a function of the
// shared items' statistic (inner product or count) and per-vector
// scalars, which is what a Source can supply without a merge.
type sourceScorer interface {
	scoreFrom(x *Source, d Vector) float64
}

// NewSource returns scratch for scoring runs under sim.
func NewSource(sim Similarity) *Source {
	kern, _ := sim.(sourceScorer)
	return &Source{sim: sim, kern: kern}
}

// slotsPerItem is the table's head-room: with 8 slots per source item
// about one item in 16 finds its home slot taken and spills.
const slotsPerItem = 8

// hashMul is 2^32 divided by the golden ratio: multiplying by it
// spreads both dense and strided item ids over the high bits.
const hashMul = 0x9E3779B1

// Reset makes v the source that subsequent Score calls compare against.
func (x *Source) Reset(v Vector) {
	x.src = v
	n := len(v.items)
	if x.kern == nil || n == 0 {
		return
	}
	width := min(bits.Len(uint(n*slotsPerItem-1)), 32)
	x.shift = uint32(32 - width)
	if m := 1 << width; cap(x.slots) < m {
		x.slots = make([]uint32, m)
	} else {
		x.slots = x.slots[:m]
		clear(x.slots)
	}
	x.spill = x.spill[:0]
	home0 := (v.items[0] * hashMul) >> x.shift
	for i := 1; i < n; i++ {
		h := (v.items[i] * hashMul) >> x.shift
		if x.slots[h] != 0 || h == home0 {
			x.spill = append(x.spill, uint32(i))
			continue
		}
		x.slots[h] = uint32(i)
	}
}

// Score returns the similarity of the source and d.
func (x *Source) Score(d Vector) float64 {
	if x.kern == nil {
		return x.sim.Score(x.src, d)
	}
	return x.kern.scoreFrom(x, d)
}

// overlap walks the items the source shares with d in ascending item
// order and returns both statistics a measure can ask for:
// x.src.Dot(d) and x.src.IntersectionSize(d).
func (x *Source) overlap(d Vector) (dot float64, shared int) {
	items, weights := x.src.items, x.src.weights
	if len(items) == 0 {
		return 0, 0
	}
	// Locals, so the loop does not reload them through x every probe;
	// the mask tells the compiler the shift count is in range.
	slots, spill, shift := x.slots, x.spill, x.shift&31
	o := 0 // spill entries below the current destination item are behind us
	for j, it := range d.items {
		i := slots[(it*hashMul)>>shift]
		if items[i] != it {
			if o == len(spill) {
				continue
			}
			for o < len(spill) && items[spill[o]] < it {
				o++
			}
			if o == len(spill) || items[spill[o]] != it {
				continue
			}
			i = spill[o]
		}
		dot += float64(weights[i]) * float64(d.weights[j])
		shared++
	}
	return dot, shared
}
