package tuples

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"knnpc/internal/disk"
	"knnpc/internal/graph"
	"knnpc/internal/partition"
)

// DiskTable is the hash table H: it absorbs raw tuples (duplicates and
// all) and serves de-duplicated, deterministically ordered shards keyed
// by the unordered partition pair of the endpoints: the tuples between
// partitions a and b share the one shard {a, b}, so a PI edge is one
// pending buffer and one spill file, read back with one open. Raw
// tuples collect in one in-memory buffer per shard; de-duplication
// happens shard-at-a-time when phase 4 reads the shard — exactly the
// moment the two owning partitions are resident anyway.
//
// H holds each unordered candidate pair once. AddBatch stores a tuple
// in canonical orientation, (min(S, D), max(S, D)), so (s, d) and
// (d, s) are one key and the read-time de-duplication drops the
// reciprocal copy with the plain ones; phase 4 scores the pair once and
// credits the score to both endpoints. Orientation does not move a
// tuple between shards, so Added and ShardCounts — the raw counts the
// PI graph is weighted by — are what they would be without it.
//
// Where the raw tuples wait is the table's one switch. With a scratch
// directory a shard's buffer is appended to that shard's spill file
// each time it reaches the spill batch, so peak memory stays bounded by
// a single shard rather than the whole tuple set. With a nil scratch it
// is never flushed: the whole shard stays in RAM and is read back as
// the unflushed tail every shard has. No other line of code differs.
//
// A spill file outlives the table: one table per iteration writes
// shard {I, J} to the same file, reopened in place from offset 0
// (disk.CreateRecordFile), because creating hundreds of files an
// iteration, each where the last one was unlinked, cost more than
// reopening them and swung with the filesystem's journal. Each table
// reads back exactly the bytes it wrote, so an earlier, larger shard's
// tail is never served, and the files go when the scratch closes. Two
// tables must therefore not be open over one scratch at once; the
// engine builds one per compute attempt and closes it before the next.
//
// Concurrency contract: AddBatch runs in phase 2, strictly before any
// Shard or ShardAhead call, and is safe for concurrent use with itself
// and with Close — phase 2's bridge, direct-edge and exploration
// producers all feed one table from their own goroutines. Each shard's
// pending buffer, raw count and spill writer are guarded by that
// shard's own mutex, so producers contend only when they hit the same
// shard, and distinct shards spill to distinct files. Append ORDER
// within a shard therefore depends on producer interleaving, which is
// immaterial: de-duplication sorts the whole shard at read time, so
// everything the table serves afterwards (Added, ShardCounts, the
// de-duplicated sorted Shard contents) is a pure function of the tuple
// multiset and a parallel build is bit-identical to a serial one. Shard
// and ShardAhead are called from the phase-4 executor's cursor
// goroutines; the asynchronous read issued by ShardAhead runs on a
// background goroutine that touches only state it owns (the shard's
// writer, spill file and pending buffer are handed over at issue time).
//
// Lock order: the table mutex (shard map, futures, closed) is always
// taken before a shard's mutex, never the reverse.
type DiskTable struct {
	assign  *partition.Assignment
	scratch *disk.Scratch // nil = never spill
	stats   *disk.IOStats
	device  *disk.Device // nil = no emulated latency on shard spill I/O
	batch   int

	mu      sync.Mutex // guards shards, futures and closed
	shards  map[ShardID]*diskShard
	futures map[ShardID]*shardFuture
	closed  bool

	added           atomic.Int64
	prefetchedBytes atomic.Int64
	spillReads      atomic.Int64

	dead graph.NodeSet // tombstoned users; set before producers start

	// readBufs recycles what the spill files' readers stream through:
	// shards are read back one at a time, each file once.
	readBufs disk.ReadBuffers
	// keyPool recycles the key scratch a shard is sorted and
	// de-duplicated in.
	keyPool sync.Pool // *keyBufs

	// encPool recycles spill-record encode buffers across flushes, so
	// the batched emit path does not allocate one fresh record per
	// flush the way the old per-call packing did; groupPool recycles
	// the per-AddBatch shard-grouping scratch (one bucket slice per
	// unordered partition pair) across calls and producers.
	encPool   sync.Pool
	groupPool sync.Pool
}

// batchGroups is the pooled scratch one AddBatch call groups its
// tuples with: buckets is indexed by the shard ordinal I·m+J (I ≤ J, so
// the slots below the diagonal stay unused), touched lists the
// non-empty ordinals so reset cost scales with the batch, not with m².
type batchGroups struct {
	buckets [][]uint64
	touched []int
}

// diskShard is one unordered partition pair's spill state. Its mutex
// guards every field; dead marks state torn down by Close (a late
// producer that already passed the table's closed check must not open
// a writer Close will never close), taken marks state handed
// over to a Shard/ShardAhead consumer.
type diskShard struct {
	mu      sync.Mutex
	pending []uint64
	count   int64
	writer  *disk.RecordWriter
	taken   bool
	dead    bool
}

// shardFuture is one in-flight asynchronous shard read.
type shardFuture struct {
	done   chan struct{}
	tuples []Tuple
	err    error
}

// defaultBatch is how many tuples accumulate in memory per shard before
// they are flushed as one spill record (8 bytes per tuple).
const defaultBatch = 1024

// NewDiskTable returns an empty H whose spill files live under scratch;
// a nil scratch keeps every tuple in memory. batch ≤ 0 selects the
// default spill batch size.
func NewDiskTable(assign *partition.Assignment, scratch *disk.Scratch, stats *disk.IOStats, batch int) *DiskTable {
	if batch <= 0 {
		batch = defaultBatch
	}
	return &DiskTable{
		assign:  assign,
		scratch: scratch,
		stats:   stats,
		batch:   batch,
		shards:  make(map[ShardID]*diskShard),
		futures: make(map[ShardID]*shardFuture),
	}
}

// SetDevice attaches an emulated storage device: every shard spill read
// then pays the device's modeled random-access latency, and every spill
// flush the modeled cost of a sequential journal append (the spill is
// an append-only stream the OS write-back coalesces; charging a seek
// per batch would model hardware no append-only workload sees). Both
// queue with all other users of the same device, making the build
// side's spill traffic and phase 4's shard reads part of the same
// latency-bound picture that EmulateDisk reproduces.
func (t *DiskTable) SetDevice(d *disk.Device) { t.device = d }

// shard returns (creating if needed) the shard of id, or an error on a
// closed table.
func (t *DiskTable) shard(id ShardID) (*diskShard, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errors.New("tuples: add to closed disk table")
	}
	sh, ok := t.shards[id]
	if !ok {
		sh = &diskShard{}
		t.shards[id] = sh
	}
	return sh, nil
}

// addKeys appends packed tuples to one shard, flushing full batches
// when there is a scratch directory to flush to. It returns the spill
// bytes written, so callers can charge the emulated device AFTER
// releasing the shard lock — sleeping modeled latency while holding a
// shard every other producer's next batch will touch would convoy the
// whole build behind one spindle access.
func (t *DiskTable) addKeys(id ShardID, keys []uint64) (int64, error) {
	sh, err := t.shard(id)
	if err != nil {
		return 0, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.dead {
		return 0, errors.New("tuples: add to closed disk table")
	}
	sh.count += int64(len(keys))
	sh.pending = append(sh.pending, keys...)
	if t.scratch != nil && len(sh.pending) >= t.batch {
		return t.flushLocked(id, sh)
	}
	return 0, nil
}

// SetTombstones installs the tombstone set: every subsequently added
// tuple with a tombstoned endpoint is dropped at the door, so a deleted
// user neither emits nor receives candidates in the next full
// iteration. The set must be installed before any producer starts
// adding and must not change while they run (it is read without
// synchronization from the add path). An empty set — the default —
// filters nothing.
func (t *DiskTable) SetTombstones(dead graph.NodeSet) { t.dead = dead }

// AddBatch records a batch of tuples — producers accumulate a local
// buffer and hand it over whole. Each tuple is stored in canonical
// orientation, smaller id first, so a batch and its reversal add the
// same keys. Tuples are grouped by shard through a pooled
// ordinal-indexed scratch, dropping tombstoned ones on the way,
// so each touched shard's lock (and at most one spill flush per shard)
// is paid once per batch instead of once per tuple, and the grouping
// itself allocates nothing in steady state.
func (t *DiskTable) AddBatch(ts []Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	m := t.assign.NumPartitions()
	g, _ := t.groupPool.Get().(*batchGroups)
	if g == nil || len(g.buckets) < m*m {
		g = &batchGroups{buckets: make([][]uint64, m*m)}
	}
	added := 0
	for _, tu := range ts {
		if t.dead.Has(tu.S) || t.dead.Has(tu.D) {
			continue
		}
		id := pairID(t.assign.Of(tu.S), t.assign.Of(tu.D))
		ord := int(id.I)*m + int(id.J)
		if len(g.buckets[ord]) == 0 {
			g.touched = append(g.touched, ord)
		}
		g.buckets[ord] = append(g.buckets[ord], pack(min(tu.S, tu.D), max(tu.S, tu.D)))
		added++
	}
	var spilled int64
	var err error
	for _, ord := range g.touched {
		if err == nil {
			var n int64
			n, err = t.addKeys(ShardID{I: uint32(ord / m), J: uint32(ord % m)}, g.buckets[ord])
			spilled += n
		}
		g.buckets[ord] = g.buckets[ord][:0]
	}
	g.touched = g.touched[:0]
	t.groupPool.Put(g)
	if err != nil {
		return err
	}
	// One aggregate device charge per batch, paid with no shard lock
	// held: only concurrent flushers queue on the spindle, never the
	// producers still generating.
	if spilled > 0 {
		t.device.Append(spilled)
	}
	t.added.Add(int64(added))
	return nil
}

// flushLocked spills one shard's pending buffer as a single record,
// returning the bytes written (the caller's deferred device charge).
// The caller holds sh.mu; the encode buffer is pooled across flushes.
func (t *DiskTable) flushLocked(id ShardID, sh *diskShard) (int64, error) {
	buf := sh.pending
	if len(buf) == 0 {
		return 0, nil
	}
	if sh.writer == nil {
		w, err := disk.CreateRecordFile(t.stats, t.shardPath(id))
		if err != nil {
			return 0, fmt.Errorf("tuples: open spill for shard (%d,%d): %w", id.I, id.J, err)
		}
		sh.writer = w
	}
	rec := t.encBuf(8 * len(buf))
	for i, k := range buf {
		binary.LittleEndian.PutUint64(rec[8*i:], k)
	}
	err := sh.writer.Append(rec)
	n := int64(len(rec))
	t.encPool.Put(&rec)
	if err != nil {
		return 0, fmt.Errorf("tuples: spill shard (%d,%d): %w", id.I, id.J, err)
	}
	sh.pending = buf[:0]
	return n, nil
}

// encBuf returns a pooled encode buffer of at least n bytes, sliced to
// exactly n.
func (t *DiskTable) encBuf(n int) []byte {
	if p, ok := t.encPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func (t *DiskTable) shardPath(id ShardID) string {
	return t.scratch.Path(fmt.Sprintf("shard-%d-%d.tuples", id.I, id.J))
}

// Added reports the number of tuples added (duplicates included).
func (t *DiskTable) Added() int64 { return t.added.Load() }

// ShardCounts returns the raw tuple count (duplicates included, an
// upper bound on the distinct count) per unordered partition pair —
// every key has I ≤ J, and the counts sum to Added. They are the
// weights from which the PI graph is built. It must only be called
// after all adds have completed (phase 3 reads it once).
func (t *DiskTable) ShardCounts() map[ShardID]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[ShardID]int64, len(t.shards))
	for id, sh := range t.shards {
		sh.mu.Lock()
		if !sh.taken && sh.count > 0 {
			out[id] = sh.count
		}
		sh.mu.Unlock()
	}
	return out
}

// takeLocked detaches shard id's consumption state — unflushed tail,
// spill writer and raw count — transferring ownership to the caller;
// ok is false when the shard is unknown, empty or already taken. The
// caller holds t.mu. Each shard is taken at most once (Shard may be
// called at most once per shard, and ShardAhead dedupes against
// in-flight futures).
func (t *DiskTable) takeLocked(id ShardID) (pending []uint64, w *disk.RecordWriter, count int64, ok bool) {
	sh := t.shards[id]
	if sh == nil {
		return nil, nil, 0, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.taken || sh.count == 0 {
		return nil, nil, 0, false
	}
	pending, w, count = sh.pending, sh.writer, sh.count
	sh.pending, sh.writer, sh.count = nil, nil, 0
	sh.taken = true
	return pending, w, count, true
}

// readShard drains one taken shard: it finishes the spill file, reads
// back the bytes this table wrote to it, merges the unflushed tail,
// and orders and de-duplicates the lot by radix sort over compact
// keys (shardOrder). The one exact-size result holds the canonical
// (S ≤ D) tuples whose source lies in partition I, then those whose
// source lies in J, each run sorted by (S, D). It touches no table
// state beyond the handed-over writer (plus the shared stats/device,
// which are concurrency-safe), so it may run on a background
// goroutine. It returns the shard's tuples and the spill bytes read
// from disk.
func (t *DiskTable) readShard(id ShardID, pending []uint64, w *disk.RecordWriter, count int64) ([]Tuple, int64, error) {
	o := newShardOrder(t.assign, id)
	kb, _ := t.keyPool.Get().(*keyBufs)
	if kb == nil {
		kb = new(keyBufs)
	}
	defer t.keyPool.Put(kb)
	if o.bits <= 32 {
		return readShardKeys(t, id, &o, pending, w, int(count), &kb.k32)
	}
	return readShardKeys(t, id, &o, pending, w, int(count), &kb.k64)
}

// keyBufs is the pooled scratch a shard is keyed and sorted in: the
// keys and the radix sort's second buffer, one array of twice the
// shard's raw count, in the narrowest key width the shard fits.
type keyBufs struct {
	k32 []uint32
	k64 []uint64
}

// readShardKeys is readShard at key width K: it decodes the unflushed
// tail and the spill records straight into keys, so the raw tuples
// never exist at full width, and checks that it read exactly the count
// tuples that were added.
func readShardKeys[K uint32 | uint64](t *DiskTable, id ShardID, o *shardOrder, pending []uint64, w *disk.RecordWriter, count int, buf *[]K) ([]Tuple, int64, error) {
	*buf = slices.Grow((*buf)[:0], 2*count)
	keys, tmp := (*buf)[:0:count], (*buf)[count:2*count]
	for _, p := range pending {
		keys = append(keys, K(o.key(p)))
	}

	var spillBytes int64
	if w != nil {
		if err := w.Close(); err != nil {
			return nil, 0, fmt.Errorf("tuples: finish spill (%d,%d): %w", id.I, id.J, err)
		}
		r, err := t.readBufs.Open(t.stats, t.shardPath(id), w.Size())
		if err != nil {
			return nil, 0, err
		}
		for {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				r.Close()
				return nil, 0, fmt.Errorf("tuples: read spill (%d,%d): %w", id.I, id.J, err)
			}
			if len(rec)%8 != 0 {
				r.Close()
				return nil, 0, fmt.Errorf("tuples: spill (%d,%d) has ragged record of %d bytes", id.I, id.J, len(rec))
			}
			spillBytes += int64(len(rec))
			for off := 0; off < len(rec); off += 8 {
				keys = append(keys, K(o.key(binary.LittleEndian.Uint64(rec[off:]))))
			}
		}
		if err := r.Close(); err != nil {
			return nil, 0, err
		}
		t.device.Read(spillBytes)
		t.spillReads.Add(1)
	}
	if len(keys) != count {
		return nil, 0, fmt.Errorf("tuples: shard (%d,%d) read back %d tuples, %d were added", id.I, id.J, len(keys), count)
	}
	return expand(o, radixSort(keys, tmp, o.bits)), spillBytes, nil
}

// ShardAhead starts reading shard {i, j} on a background goroutine, so
// the later Shard call for the same pair, named in either order,
// returns the already-read (and already de-duplicated) tuples instead
// of blocking the phase-4 cursor on spill I/O and sorting — a shard
// that never spilled still moves its sort-and-dedup off the cursor. The
// pair sequence is fixed by the op tape, so the executor knows which
// shards are needed next; shards are only written in phase 2, so there
// is no write-back hazard to order against. Announcing an empty,
// unknown, already-announced or already-consumed shard is a no-op.
func (t *DiskTable) ShardAhead(i, j uint32) {
	id := pairID(i, j)
	t.mu.Lock()
	if t.closed || t.futures[id] != nil {
		t.mu.Unlock()
		return
	}
	pending, w, count, ok := t.takeLocked(id)
	if !ok {
		t.mu.Unlock()
		return
	}
	f := &shardFuture{done: make(chan struct{})}
	t.futures[id] = f
	t.mu.Unlock()

	go func() {
		defer close(f.done)
		var n int64
		f.tuples, n, f.err = t.readShard(id, pending, w, count)
		t.prefetchedBytes.Add(n)
	}()
}

// PrefetchedShardBytes reports the cumulative spill bytes read through
// the asynchronous ShardAhead path.
func (t *DiskTable) PrefetchedShardBytes() int64 { return t.prefetchedBytes.Load() }

// SpillReads reports how many spill files shard reads have opened: at
// most one per shard, and 0 for a table that never spilled.
func (t *DiskTable) SpillReads() int64 { return t.spillReads.Load() }

// Shard returns the de-duplicated tuples with one endpoint in
// partition i and the other in j, each unordered pair once in
// canonical orientation (S ≤ D) — so a shard never serves both (s, d)
// and (d, s): those with a source in min(i, j) first, then those with
// a source in max(i, j), each run sorted by (S, D). It reads back
// what the table spilled of the shard and radix-sorts it with the
// unflushed tail, dropping duplicates; the spill file stays for the
// next table. It consumes the shard: (i, j) and (j, i) name the same
// one, so a second call in either order returns nil (each shard is
// read exactly once, by the PI edge that owns it). A shard announced
// with ShardAhead is served from the in-flight read instead — waiting
// for it if necessary. Calling Shard on a closed table is an error:
// the table gave up its spill writers, so silently returning an empty
// shard would hide lost tuples.
func (t *DiskTable) Shard(i, j uint32) ([]Tuple, error) {
	id := pairID(i, j)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("tuples: read of shard (%d,%d) after Close", i, j)
	}
	if f := t.futures[id]; f != nil {
		delete(t.futures, id)
		t.mu.Unlock()
		<-f.done
		return f.tuples, f.err
	}
	pending, w, count, ok := t.takeLocked(id)
	t.mu.Unlock()
	if !ok {
		return nil, nil
	}
	ts, _, err := t.readShard(id, pending, w, count)
	return ts, err
}

// Close waits out any in-flight shard reads, then closes every spill
// writer still open. It removes no file: spill files belong to the
// scratch directory and are rewritten in place by the next table over
// it, which reads back only what it wrote itself; they go when the
// scratch closes. The closed flag is set under the table mutex (the
// same lock the add path's shard lookup takes), and each shard's state
// is detached under that shard's own mutex and marked dead BEFORE it is
// torn down — so an AddBatch, Shard or ShardAhead racing with Close
// either completes entirely against state it already holds, or
// observes closed/dead and errors. Never a half-dismantled shard or a
// writer Close is about to close under it.
func (t *DiskTable) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	inflight := t.futures
	shards := t.shards
	t.futures = nil
	t.shards = nil
	t.mu.Unlock()

	// Abandoned read-aheads (an aborted phase 4 never consumed them)
	// own their writers; wait for each so no goroutine or open file
	// outlives the table — and keep their errors: a failed background
	// read that nobody consumed must still surface somewhere.
	var firstErr error
	for _, f := range inflight {
		<-f.done
		if f.err != nil && firstErr == nil {
			firstErr = f.err
		}
	}
	for _, sh := range shards {
		sh.mu.Lock()
		w := sh.writer
		sh.pending, sh.writer, sh.count = nil, nil, 0
		sh.dead = true
		sh.mu.Unlock()
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
