package tuples

import (
	"math/bits"

	"knnpc/internal/partition"
)

// shardOrder maps the tuples of one shard to compact sort keys and
// back. A key is the source's rank in the shard — its ordinal among
// partition I's members, or |I| plus its ordinal among J's — above the
// destination id, so ascending keys are exactly the order a shard is
// served in: sources in I before sources in J, each run by (S, D).
// Members are ascending, so within a partition rank order is id order.
type shardOrder struct {
	assign   *partition.Assignment
	i        uint32
	inI, inJ []uint32 // members of I and of J; inJ is nil when I == J
	dBits    uint     // bits of a destination id
	bits     int      // bits of a whole key
}

func newShardOrder(assign *partition.Assignment, id ShardID) shardOrder {
	o := shardOrder{assign: assign, i: id.I, inI: assign.Members(id.I)}
	ranks := len(o.inI)
	if id.J != id.I {
		o.inJ = assign.Members(id.J)
		ranks += len(o.inJ)
	}
	o.dBits = uint(bits.Len(uint(max(assign.NumNodes(), 1) - 1)))
	o.bits = int(o.dBits) + bits.Len(uint(max(ranks, 1)-1))
	return o
}

// key maps a packed tuple of the shard to its sort key.
func (o *shardOrder) key(packed uint64) uint64 {
	s := uint32(packed >> 32)
	rank := uint64(o.assign.Ordinal(s))
	if o.assign.Of(s) != o.i {
		rank += uint64(len(o.inI))
	}
	return rank<<o.dBits | uint64(uint32(packed))
}

// tuple maps a sort key back to its tuple.
func (o *shardOrder) tuple(k uint64) Tuple {
	rank, d := k>>o.dBits, uint32(k&(1<<o.dBits-1))
	if rank < uint64(len(o.inI)) {
		return Tuple{S: o.inI[rank], D: d}
	}
	return Tuple{S: o.inJ[rank-uint64(len(o.inI))], D: d}
}

// expand returns the distinct tuples of sorted keys, in key order, in a
// slice of exactly their number.
func expand[K uint32 | uint64](o *shardOrder, keys []K) []Tuple {
	distinct := 0
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			distinct++
		}
	}
	out := make([]Tuple, 0, distinct)
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, o.tuple(uint64(k)))
		}
	}
	return out
}

// radixSort sorts keys by their low width bits, least significant byte
// first, scattering between keys and tmp (of equal length), and returns
// whichever of the two holds the result. One counting pass fills every
// byte's histogram; a byte all keys share is skipped.
func radixSort[K uint32 | uint64](keys, tmp []K, width int) []K {
	passes := (width + 7) / 8
	if len(keys) < 2 || passes == 0 {
		return keys
	}
	var counts [8][256]int
	for _, k := range keys {
		for p := range passes {
			counts[p][byte(k>>(8*p))]++
		}
	}
	src, dst := keys, tmp
	for p := range passes {
		shift := 8 * p
		c := &counts[p]
		if c[byte(src[0]>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}
