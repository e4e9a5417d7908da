package pigraph

import "fmt"

// ShardRouter maps partition ids onto N shards by contiguous range:
// shard s owns partitions [s·m/N, (s+1)·m/N). Contiguity is deliberate —
// the traversal heuristics and Schedule.Split already work in contiguous
// partition runs, so a worker's tape segment tends to stay within one or
// two shards (the locality-preserving sharding Cluster-and-Conquer
// exploits), and a shard's range is describable by two integers, which
// is what lets independent state-store shards validate ownership without
// any shared directory.
//
// The router is the one shard-routing layer every netstore party shares:
// the client routes each worker callback's partition to its shard, and
// the servers validate that a request belongs to their range. Keeping
// it here, next to the schedule machinery, pins the routing to the same
// partition-id space the op tape is expressed in.
type ShardRouter struct {
	numPartitions int
	shards        int
}

// NewShardRouter builds a router over numPartitions partitions and
// shards shards. Every shard must own at least one partition, so shards
// is capped by numPartitions.
func NewShardRouter(numPartitions, shards int) (ShardRouter, error) {
	if numPartitions <= 0 {
		return ShardRouter{}, fmt.Errorf("pigraph: shard router needs a positive partition count, got %d", numPartitions)
	}
	if shards <= 0 {
		return ShardRouter{}, fmt.Errorf("pigraph: shard router needs a positive shard count, got %d", shards)
	}
	if shards > numPartitions {
		return ShardRouter{}, fmt.Errorf("pigraph: %d shards over %d partitions would leave a shard empty", shards, numPartitions)
	}
	return ShardRouter{numPartitions: numPartitions, shards: shards}, nil
}

// NumPartitions reports the partition-id space size m.
func (r ShardRouter) NumPartitions() int { return r.numPartitions }

// NumShards reports the shard count N.
func (r ShardRouter) NumShards() int { return r.shards }

// ShardOf reports the shard owning partition p. p must be in [0, m).
func (r ShardRouter) ShardOf(p uint32) (int, error) {
	if int(p) >= r.numPartitions {
		return 0, fmt.Errorf("pigraph: partition %d out of range [0,%d)", p, r.numPartitions)
	}
	// Inverse of Range: the largest s with s·m/N ≤ p.
	return ((int(p)+1)*r.shards - 1) / r.numPartitions, nil
}

// Range reports the contiguous partition range [lo, hi) of shard s.
func (r ShardRouter) Range(s int) (lo, hi int) {
	lo = s * r.numPartitions / r.shards
	hi = (s + 1) * r.numPartitions / r.shards
	return lo, hi
}
