// Package tuples implements phase 2 of the paper: generating the
// neighbors'-neighbors tuples (s, d) of every user and collecting them —
// together with the direct edges of G(t) — in a de-duplicating hash
// table H, sharded by the partition pair (partition(s), partition(d)).
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

// Table is the hash table H: it absorbs raw tuples (with duplicates)
// and serves de-duplicated, deterministically ordered shards keyed by
// the partition pair of the endpoints.
//
// Concurrency contract: Add and AddBatch are safe for concurrent use
// with each other — phase 2's bridge, direct-edge and exploration
// producers all feed one table from their own goroutines. Because H
// de-duplicates and shards only by endpoint partitions, everything the
// table serves afterwards (Added, ShardCounts, the de-duplicated
// sorted Shard contents) depends only on the multiset of tuples added,
// never on the interleaving, so a parallel build is bit-identical to a
// serial one. Shard and ShardAhead still run strictly after the add
// phase, per the five-phase structure.
type Table interface {
	// Add records the tuple (s, d).
	Add(s, d uint32) error
	// AddBatch records a batch of tuples in one call — the batched
	// emit path of the parallel build: producers accumulate a local
	// buffer and hand it over whole, so per-tuple locking and encode
	// overhead amortize across the batch. Equivalent to calling Add
	// for each element.
	AddBatch(ts []Tuple) error
	// Added reports the number of tuples added (duplicates included).
	Added() int64
	// ShardCounts returns the raw tuple count per directed partition
	// pair — the weights from which the PI graph is built. It must only
	// be called after all adds have completed (phase 3 reads it once).
	ShardCounts() map[ShardID]int64
	// Shard returns the de-duplicated tuples whose endpoints lie in
	// partitions (i, j), sorted by (S, D). It may be called at most
	// once per shard (disk-backed tables consume the shard).
	Shard(i, j uint32) ([]Tuple, error)
	// SetTombstones installs the deletion predicate: every subsequently
	// added tuple with a tombstoned endpoint is dropped at the door, so
	// a deleted user neither emits nor receives candidates in the next
	// full iteration. The predicate must be installed before any
	// producer starts adding (it is read without synchronization from
	// the add paths) and must be safe for concurrent calls. A nil
	// predicate — the default — filters nothing and costs one nil check
	// per add, keeping the deletion-free path bit-identical to a table
	// without the filter.
	SetTombstones(dead func(uint32) bool)
	// Close releases any resources.
	Close() error
}

// ShardPrefetcher is the optional asynchronous read-ahead surface of a
// Table. The phase-4 executor knows the pair sequence from its op tape,
// so it announces upcoming shards through ShardAhead; implementations
// start reading (and de-duplicating) the shard on a background
// goroutine so the matching Shard call finds the data ready. Tables
// without a useful async path (the in-memory table) simply don't
// implement it.
type ShardPrefetcher interface {
	// ShardAhead begins an asynchronous read of shard (i, j). It must
	// be safe to announce any shard at most once before its Shard call,
	// including empty or unknown shards (a no-op).
	ShardAhead(i, j uint32)
	// PrefetchedShardBytes reports the cumulative bytes read through
	// the asynchronous path.
	PrefetchedShardBytes() int64
}

// ShardID names a directed partition pair: tuples (s, d) with
// partition(s) = I and partition(d) = J.
type ShardID struct {
	I uint32
	J uint32
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
