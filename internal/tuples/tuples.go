// Package tuples implements phase 2 of the paper: generating the
// neighbors'-neighbors tuples (s, d) of every user and collecting them —
// together with the direct edges of G(t) — in a de-duplicating hash
// table H, sharded by the unordered partition pair
// {partition(s), partition(d)}.
//
// Duplicates arise from cycles (a, b, c all linking to each other) and
// from multiple bridges (a→b→d and a→c→d both yield (a, d)); H keeps
// exactly one copy so phase 4 scores each candidate pair once.
package tuples

import (
	"fmt"

	"knnpc/internal/partition"
)

// Tuple is a candidate pair: D is a neighbor or neighbor's-neighbor of
// S, so D is a candidate for S's next K-nearest set.
type Tuple struct {
	S uint32
	D uint32
}

func pack(s, d uint32) uint64 { return uint64(s)<<32 | uint64(d) }
func unpack(k uint64) Tuple   { return Tuple{S: uint32(k >> 32), D: uint32(k)} }

// GenerateBridge enumerates the neighbors'-neighbors tuples of one
// partition by a sequential merge of its bridge-sorted edge lists: for
// every member v, each in-edge (s, v) joins each out-edge (v, d) into
// the tuple (s, d), skipping s == d. Because every bridge v lives in
// exactly one partition, the union over all partitions is the complete
// two-hop tuple set of G(t).
//
// emit is called once per generated tuple (duplicates included — H is
// responsible for de-duplication); a non-nil error aborts the pass.
func GenerateBridge(p *partition.Data, emit func(s, d uint32) error) error {
	in, out := p.InEdges, p.OutEdges
	i, j := 0, 0
	for i < len(in) && j < len(out) {
		vi, vo := in[i].Dst, out[j].Src // bridge vertices of each group
		switch {
		case vi < vo:
			i++
		case vi > vo:
			j++
		default:
			// Delimit the in-group and out-group of bridge vi.
			iEnd := i
			for iEnd < len(in) && in[iEnd].Dst == vi {
				iEnd++
			}
			jEnd := j
			for jEnd < len(out) && out[jEnd].Src == vi {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					s, d := in[a].Src, out[b].Dst
					if s == d {
						continue
					}
					if err := emit(s, d); err != nil {
						return fmt.Errorf("tuples: emit (%d,%d): %w", s, d, err)
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return nil
}

// ShardID names an unordered partition pair, I ≤ J: the tuples (s, d)
// with {partition(s), partition(d)} = {I, J}, both directions together.
type ShardID struct {
	I uint32
	J uint32
}

// pairID is the ShardID of partitions i and j in either order.
func pairID(i, j uint32) ShardID {
	return ShardID{I: min(i, j), J: max(i, j)}
}

// filterTuples drops batch entries with a tombstoned endpoint. With a
// nil predicate the input is returned as-is, copy-free.
func filterTuples(ts []Tuple, dead func(uint32) bool) []Tuple {
	if dead == nil {
		return ts
	}
	out := make([]Tuple, 0, len(ts))
	for _, tu := range ts {
		if dead(tu.S) || dead(tu.D) {
			continue
		}
		out = append(out, tu)
	}
	return out
}
