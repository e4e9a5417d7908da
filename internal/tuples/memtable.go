package tuples

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"knnpc/internal/partition"
)

// MemTable is the in-memory implementation of the hash table H: exact
// de-duplication at insert time via per-shard hash sets. It is the
// default when the tuple set fits in the memory budget.
//
// Add and AddBatch are safe for concurrent use: the shard map is
// guarded by a read-mostly lock (shards are created lazily, once each)
// and every shard's set by its own mutex, so producers touching
// different shards never contend. Set contents are order-insensitive,
// which is what makes a parallel phase-2 build bit-identical to the
// serial one.
type MemTable struct {
	assign *partition.Assignment
	mu     sync.RWMutex // guards shards (lazy creation) and closed
	shards map[ShardID]*memShard
	closed bool
	added  atomic.Int64
	dead   func(uint32) bool // tombstone predicate; set before producers start

	// groupPool recycles the per-AddBatch shard-grouping scratch (one
	// bucket per directed partition pair, ordinal-indexed) across
	// calls and producers, keeping the batched path allocation-free in
	// steady state.
	groupPool sync.Pool
}

// memShard is one directed partition pair's de-duplicating set.
type memShard struct {
	mu  sync.Mutex
	set map[uint64]struct{}
}

// NewMemTable returns an empty in-memory H over the given assignment.
func NewMemTable(assign *partition.Assignment) *MemTable {
	return &MemTable{
		assign: assign,
		shards: make(map[ShardID]*memShard),
	}
}

// shard returns (creating if needed) the shard of id, or an error on a
// closed table.
func (t *MemTable) shard(id ShardID) (*memShard, error) {
	t.mu.RLock()
	sh, ok := t.shards[id]
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, errors.New("tuples: add to closed mem table")
	}
	if ok {
		return sh, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errors.New("tuples: add to closed mem table")
	}
	if sh, ok = t.shards[id]; !ok {
		sh = &memShard{set: make(map[uint64]struct{})}
		t.shards[id] = sh
	}
	return sh, nil
}

// SetTombstones implements Table.
func (t *MemTable) SetTombstones(dead func(uint32) bool) { t.dead = dead }

// Add implements Table.
func (t *MemTable) Add(s, d uint32) error {
	if t.dead != nil && (t.dead(s) || t.dead(d)) {
		return nil
	}
	id := ShardID{I: t.assign.Of(s), J: t.assign.Of(d)}
	sh, err := t.shard(id)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	sh.set[pack(s, d)] = struct{}{}
	sh.mu.Unlock()
	t.added.Add(1)
	return nil
}

// AddBatch implements Table: tuples are grouped by shard through a
// pooled ordinal-indexed scratch so each touched shard's lock is taken
// once per batch and the grouping allocates nothing in steady state.
func (t *MemTable) AddBatch(ts []Tuple) error {
	ts = filterTuples(ts, t.dead)
	if len(ts) == 0 {
		return nil
	}
	m := t.assign.NumPartitions()
	g, _ := t.groupPool.Get().(*batchGroups)
	if g == nil || len(g.buckets) < m*m {
		g = &batchGroups{buckets: make([][]uint64, m*m)}
	}
	for _, tu := range ts {
		ord := int(t.assign.Of(tu.S))*m + int(t.assign.Of(tu.D))
		if len(g.buckets[ord]) == 0 {
			g.touched = append(g.touched, ord)
		}
		g.buckets[ord] = append(g.buckets[ord], pack(tu.S, tu.D))
	}
	var err error
	for _, ord := range g.touched {
		if err == nil {
			id := ShardID{I: uint32(ord / m), J: uint32(ord % m)}
			var sh *memShard
			if sh, err = t.shard(id); err == nil {
				sh.mu.Lock()
				for _, k := range g.buckets[ord] {
					sh.set[k] = struct{}{}
				}
				sh.mu.Unlock()
			}
		}
		g.buckets[ord] = g.buckets[ord][:0]
	}
	g.touched = g.touched[:0]
	t.groupPool.Put(g)
	if err != nil {
		return err
	}
	t.added.Add(int64(len(ts)))
	return nil
}

// Added implements Table.
func (t *MemTable) Added() int64 { return t.added.Load() }

// Unique reports the number of distinct tuples held — the size of H.
func (t *MemTable) Unique() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += int64(len(sh.set))
		sh.mu.Unlock()
	}
	return n
}

// ShardCounts implements Table. For MemTable the counts are exact
// distinct-tuple counts.
func (t *MemTable) ShardCounts() map[ShardID]int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[ShardID]int64, len(t.shards))
	for id, sh := range t.shards {
		sh.mu.Lock()
		if n := len(sh.set); n > 0 {
			out[id] = int64(n)
		}
		sh.mu.Unlock()
	}
	return out
}

// Shard implements Table.
func (t *MemTable) Shard(i, j uint32) ([]Tuple, error) {
	t.mu.RLock()
	sh := t.shards[ShardID{I: i, J: j}]
	t.mu.RUnlock()
	if sh == nil {
		return nil, nil
	}
	sh.mu.Lock()
	keys := make([]uint64, 0, len(sh.set))
	for k := range sh.set {
		keys = append(keys, k)
	}
	sh.mu.Unlock()
	if len(keys) == 0 {
		return nil, nil
	}
	slices.Sort(keys)
	out := make([]Tuple, len(keys))
	for idx, k := range keys {
		out[idx] = unpack(k)
	}
	return out, nil
}

// Close implements Table.
func (t *MemTable) Close() error {
	t.mu.Lock()
	t.closed = true
	t.shards = nil
	t.mu.Unlock()
	return nil
}

var _ Table = (*MemTable)(nil)
