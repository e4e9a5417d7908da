package pigraph

import "fmt"

// Callbacks receive the events of a schedule execution. Nil callbacks
// are skipped, so a pure simulation passes the zero value. The engine's
// phase 4 passes real partition I/O here, which is what guarantees the
// engine's measured load/unload count equals the simulated one.
type Callbacks struct {
	// Load is called when partition p is brought into a memory slot.
	Load func(p uint32) error
	// Unload is called when partition p is evicted (or flushed at the
	// end of the run).
	Unload func(p uint32) error
	// Pair is called with both partitions resident to process the
	// tuple shards of the unordered pair {primary, peer}.
	Pair func(primary, peer uint32) error
	// Self is called with p resident to process p's self-shard.
	Self func(p uint32) error

	// Fetch and Commit split Load into an asynchronous half and a
	// synchronous half for pipelined execution (ExecOptions with
	// PrefetchDepth > 0). Fetch reads partition p off the storage
	// medium WITHOUT making it resident; the executor may run it on a
	// background goroutine concurrently with Pair/Self/Unload of other
	// partitions (never concurrently with a write-back of p itself —
	// the executor orders each fetch after the completion of the
	// write-back that precedes it on the tape, even when that write
	// runs asynchronously). Commit makes the fetched value resident; it
	// runs on the executor's cursor, serialized with every other
	// cursor-side callback.
	//
	// When either is nil, or PrefetchDepth is 0, every load runs
	// synchronously at its tape position: through Load, or — when Load
	// is nil — as Fetch followed by Commit on the cursor.
	Fetch  func(p uint32) (any, error)
	Commit func(p uint32, data any) error
	// Discard releases a successfully fetched value that will never be
	// committed — it is called (on the executor's goroutine, after the
	// fetch completes) for each in-flight prefetch abandoned when
	// execution aborts early, and for a fetched value whose Commit
	// returned an error (a failed commit leaves the value un-committed,
	// so its staged resources must still be released). Callers that
	// charge resources in Fetch (memory budgets, pinned buffers)
	// release them here.
	Discard func(p uint32, data any)

	// Evict and Flush split Unload into a synchronous half and an
	// asynchronous half — the write-back analogue of Fetch/Commit —
	// for ExecOptions with WritebackDepth > 0. Evict removes partition
	// p from residency and returns the payload to be written back; it
	// runs on the executor's cursor at the unload's tape position, so
	// the Loads/Unloads accounting is untouched. Flush writes the
	// evicted payload to the storage medium; the executor runs it on a
	// background goroutine, bounded to WritebackDepth writes in flight,
	// concurrently with any cursor work and with fetches of OTHER
	// partitions. A load of p never observes a pending flush of p (the
	// write-back hazard): the executor blocks that load — or its
	// background fetch — until the flush lands, and surfaces the
	// flush's error there. Every flush completes before ExecuteParallel
	// returns.
	//
	// When either is nil, or WritebackDepth is 0, every unload runs
	// synchronously at its tape position: through Unload, or — when
	// Unload is nil — as Evict followed by Flush on the cursor.
	Evict func(p uint32) (any, error)
	Flush func(p uint32, data any) error

	// PairAhead announces, on the executor's cursor, that the tuple
	// shards of the unordered pair {a, b} (or of a's self-shard when
	// a == b) will be processed soon — at most ExecOptions.ShardAhead
	// pair/self steps ahead of the corresponding Pair/Self call.
	// Implementations typically start an asynchronous shard read and
	// return immediately; shard data is written before execution
	// starts, so there is no hazard to order against. Nil disables the
	// announcements.
	PairAhead func(a, b uint32)
}

// ExecOptions tunes schedule execution. The zero value reproduces the
// paper's setting: two memory slots, fully serial I/O. None of the
// pipelining knobs ever change the Loads/Unloads accounting — the op
// tape is fixed by Slots alone; they only overlap I/O with computation.
type ExecOptions struct {
	// Slots is the memory budget S: at most S partitions resident at
	// once (0 defaults to 2, the paper's model; values below 2 are an
	// error — a pair needs both endpoints resident).
	Slots int
	// PrefetchDepth is the asynchronous load lookahead: how many
	// upcoming partition loads may be in flight (fetched on background
	// goroutines) ahead of the scoring cursor. 0 (the default) is
	// serial loading. Each in-flight fetch transiently holds one
	// partition beyond the S resident slots.
	PrefetchDepth int
	// WritebackDepth is the asynchronous write-back bound: how many
	// evicted partitions may be in flight to storage behind the cursor
	// (flushed on background goroutines). 0 (the default) is serial
	// unloading. Each in-flight write transiently holds one partition's
	// payload beyond the S resident slots, symmetric to PrefetchDepth.
	WritebackDepth int
	// ShardAhead is the tuple-shard read lookahead: how many upcoming
	// pair/self steps are announced through Callbacks.PairAhead before
	// the cursor reaches them, so their shard bytes can be read off
	// storage concurrently with scoring. 0 (the default) disables the
	// announcements.
	ShardAhead int
	// Workers shards the op tape itself: the schedule's visit sequence
	// is cut into that many contiguous segments at pair boundaries (see
	// Schedule.Split) and each segment runs on its own goroutine with
	// its own Slots-slot LRU budget. 0 or 1 (the default) is the
	// single-cursor execution; the accounting invariant generalizes:
	// for a fixed (Slots, Workers) the per-worker tapes — and therefore
	// the per-worker and summed Loads/Unloads — are deterministic, and
	// Workers=1 reproduces the single-cursor counts bit for bit.
	Workers int
}

// Validate rejects nonsensical budgets with a descriptive error: the
// executor never silently clamps an out-of-range option. Slots may be 0
// (the documented "default to 2"); 1 or negative is an error because a
// pair needs both endpoints resident.
func (o ExecOptions) Validate() error {
	if o.Slots != 0 && o.Slots < 2 {
		return fmt.Errorf("pigraph: ExecOptions.Slots = %d; need at least 2 resident partitions to process a pair (0 selects the default of 2)", o.Slots)
	}
	if o.PrefetchDepth < 0 {
		return fmt.Errorf("pigraph: ExecOptions.PrefetchDepth = %d; the async load lookahead cannot be negative (0 disables prefetching)", o.PrefetchDepth)
	}
	if o.WritebackDepth < 0 {
		return fmt.Errorf("pigraph: ExecOptions.WritebackDepth = %d; the async write-back bound cannot be negative (0 disables async write-back)", o.WritebackDepth)
	}
	if o.ShardAhead < 0 {
		return fmt.Errorf("pigraph: ExecOptions.ShardAhead = %d; the shard read lookahead cannot be negative (0 disables shard announcements)", o.ShardAhead)
	}
	if o.Workers < 0 {
		return fmt.Errorf("pigraph: ExecOptions.Workers = %d; the tape worker count cannot be negative (0 selects the single-cursor default)", o.Workers)
	}
	return nil
}

func (o ExecOptions) withDefaults() (ExecOptions, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	if o.Slots == 0 {
		o.Slots = 2
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o, nil
}

// Result summarizes an execution: the load/unload operation counts the
// paper's Table 1 reports, plus processed work tallies.
type Result struct {
	Loads   int64
	Unloads int64
	Pairs   int64
	Selfs   int64
	// PrefetchedLoads is the subset of Loads whose I/O was issued
	// asynchronously ahead of the cursor (always 0 for serial
	// execution). It is reported separately so Table 1's Ops metric
	// stays comparable across execution modes: Ops counts every load
	// exactly once whether it was prefetched or not.
	PrefetchedLoads int64
	// AsyncUnloads is the subset of Unloads whose write-back was issued
	// asynchronously behind the cursor (always 0 unless WritebackDepth
	// is set). Like PrefetchedLoads, it never changes the Ops metric:
	// every unload is counted exactly once at its tape position.
	AsyncUnloads int64
}

// Ops reports Loads + Unloads, Table 1's metric.
func (r Result) Ops() int64 { return r.Loads + r.Unloads }

// Add accumulates o into r — used to sum per-worker results into the
// totals of a sharded execution.
func (r *Result) Add(o Result) {
	r.Loads += o.Loads
	r.Unloads += o.Unloads
	r.Pairs += o.Pairs
	r.Selfs += o.Selfs
	r.PrefetchedLoads += o.PrefetchedLoads
	r.AsyncUnloads += o.AsyncUnloads
}

// opKind discriminates the entries of the op tape.
type opKind uint8

const (
	opLoad opKind = iota
	opUnload
	opPair
	opSelf
)

// op is one step of the fully resolved execution plan. For opPair, a is
// the primary and b the peer; otherwise b is unused.
type op struct {
	kind opKind
	a, b uint32
}

// slotMachine models the paper's memory constraint generalized to S
// slots: at most S partitions resident. Eviction is least-recently-used
// with the current primary pinned. It emits the op tape instead of
// invoking callbacks, so execution and simulation read the same plan.
type slotMachine struct {
	resident []int64 // partition ids; -1 = empty
	lastUsed []int64
	tick     int64
	tape     []op
}

func newSlotMachine(slots int) *slotMachine {
	sm := &slotMachine{
		resident: make([]int64, slots),
		lastUsed: make([]int64, slots),
	}
	for i := range sm.resident {
		sm.resident[i] = -1
	}
	return sm
}

// ensure makes p resident. pinned (≥0) names a partition that must not
// be evicted; pass -1 to pin nothing.
func (sm *slotMachine) ensure(p uint32, pinned int64) error {
	sm.tick++
	for i := range sm.resident {
		if sm.resident[i] == int64(p) {
			sm.lastUsed[i] = sm.tick
			return nil
		}
	}
	slot := -1
	for i := range sm.resident {
		if sm.resident[i] == -1 {
			slot = i
			break
		}
	}
	if slot == -1 {
		// Evict the least recently used slot that is not pinned.
		best := int64(1) << 62
		for i := range sm.resident {
			if sm.resident[i] == pinned {
				continue
			}
			if sm.lastUsed[i] < best {
				best = sm.lastUsed[i]
				slot = i
			}
		}
		if slot == -1 {
			return fmt.Errorf("pigraph: all %d slots pinned while loading %d", len(sm.resident), p)
		}
		sm.tape = append(sm.tape, op{kind: opUnload, a: uint32(sm.resident[slot])})
	}
	sm.resident[slot] = int64(p)
	sm.lastUsed[slot] = sm.tick
	sm.tape = append(sm.tape, op{kind: opLoad, a: p})
	return nil
}

// drain unloads everything still resident, in slot order.
func (sm *slotMachine) drain() {
	for i := range sm.resident {
		if sm.resident[i] == -1 {
			continue
		}
		sm.tape = append(sm.tape, op{kind: opUnload, a: uint32(sm.resident[i])})
		sm.resident[i] = -1
	}
}

// plan resolves the schedule into the op tape of an S-slot execution.
// Memory starts empty and is drained at the end.
func (s *Schedule) plan(slots int) ([]op, error) {
	sm := newSlotMachine(slots)
	for _, v := range s.Visits {
		if err := sm.ensure(v.Primary, -1); err != nil {
			return nil, err
		}
		if v.Self {
			sm.tape = append(sm.tape, op{kind: opSelf, a: v.Primary})
		}
		for _, peer := range v.Peers {
			if err := sm.ensure(peer, int64(v.Primary)); err != nil {
				return nil, err
			}
			sm.tape = append(sm.tape, op{kind: opPair, a: v.Primary, b: peer})
		}
	}
	sm.drain()
	return sm.tape, nil
}

// future is one in-flight background fetch.
type future struct {
	p    uint32
	done chan struct{}
	data any
	err  error
}

// writeback is one in-flight background flush of an evicted partition.
type writeback struct {
	p    uint32
	done chan struct{}
	err  error
}

// replay walks one op tape on the calling goroutine — the only loop
// that executes a schedule. A stream is enabled when its option is set
// AND its callbacks are present; with none enabled every op runs
// synchronously at its tape position (the paper's serial execution) and
// the loop allocates nothing. Enabled streams overlap I/O with the
// cursor's compute work:
//
//   - up to PrefetchDepth partition fetches in flight ahead of the
//     cursor. A fetch for the load at tape index i is only issued once
//     the latest unload of the same partition before i has executed,
//     and the fetch goroutine additionally waits for that unload's
//     asynchronous flush to land (the write-back hazard): fetching
//     earlier would read stale bytes.
//   - up to WritebackDepth evicted partitions in flight to storage
//     behind the cursor. Residency changes at the unload's tape
//     position (Evict, on the cursor), so the accounting is untouched;
//     only the flush overlaps.
//   - tuple-shard announcements up to ShardAhead pair/self steps ahead
//     of the cursor, so shard bytes stream in alongside partition
//     state.
//
// Every flush completes — and every fetch is consumed or discarded —
// before the function returns, on success and on error alike.
func replay(tape []op, cb Callbacks, opts ExecOptions) (Result, error) {
	usePrefetch := opts.PrefetchDepth > 0 && cb.Fetch != nil && cb.Commit != nil
	useWriteback := opts.WritebackDepth > 0 && cb.Evict != nil && cb.Flush != nil
	useShardAhead := opts.ShardAhead > 0 && cb.PairAhead != nil

	// All per-op bookkeeping is indexed by tape position, and exists only
	// for the streams that are enabled. hazard[i], for a load op at index
	// i, is the index of the latest unload of the same partition before i
	// (-1 if none); futures[i] is the in-flight fetch of the load at i;
	// writes[i] the flush of the unload at i (kept after it lands, so a
	// later load can still read its error); shardAnnounced[i] marks an
	// announced, not yet processed pair/self step.
	var (
		hazard         []int
		futures        []*future
		writes         []*writeback
		shardAnnounced []bool
	)
	if usePrefetch || useWriteback {
		hazard = make([]int, len(tape))
		lastUnload := make(map[uint32]int)
		for i, o := range tape {
			switch o.kind {
			case opUnload:
				lastUnload[o.a] = i
			case opLoad:
				h, ok := lastUnload[o.a]
				if !ok {
					h = -1
				}
				hazard[i] = h
			}
		}
	}
	if usePrefetch {
		futures = make([]*future, len(tape))
	}
	if useWriteback {
		writes = make([]*writeback, len(tape))
	}
	if useShardAhead {
		shardAnnounced = make([]bool, len(tape))
	}
	// pendingWrite returns the flush a load at tape index i must wait
	// for, nil when there is none.
	pendingWrite := func(i int) *writeback {
		if writes == nil || hazard[i] < 0 {
			return nil
		}
		return writes[hazard[i]]
	}

	outstanding := 0 // fetches in flight
	scan := 0        // next tape index to consider for prefetch
	writeQueue := make([]int, 0, opts.WritebackDepth)
	shardsAhead := 0
	shardScan := 0 // next tape index to consider for announcement

	// drainAll waits out every issued-but-unconsumed fetch (handing
	// successfully fetched values back through Discard) and every
	// in-flight flush, so no goroutine outlives the call. It returns
	// the first flush error in tape order — on the success path the
	// caller must fail the run with it, since the store now holds stale
	// bytes for that partition.
	drainAll := func() error {
		for _, f := range futures {
			if f == nil {
				continue
			}
			<-f.done
			if f.err == nil && cb.Discard != nil {
				cb.Discard(f.p, f.data)
			}
		}
		var firstErr error
		for _, wb := range writes {
			if wb == nil {
				continue
			}
			<-wb.done
			if wb.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("pigraph: write-back %d: %w", wb.p, wb.err)
			}
		}
		return firstErr
	}

	var r Result
	for cursor, o := range tape {
		// Announce upcoming tuple shards, keeping at most ShardAhead
		// pair/self steps announced-but-unprocessed. The scan may have
		// stalled exactly at the cursor (window saturated by the
		// preceding steps); announcing at the cursor's own position is
		// still "before Pair/Self runs", so every step is announced
		// exactly once.
		for useShardAhead && shardsAhead < opts.ShardAhead && shardScan < len(tape) {
			if shardScan < cursor {
				shardScan = cursor
				continue
			}
			if next := tape[shardScan]; next.kind == opPair || next.kind == opSelf {
				if next.kind == opSelf {
					next.b = next.a
				}
				cb.PairAhead(next.a, next.b)
				shardAnnounced[shardScan] = true
				shardsAhead++
			}
			shardScan++
		}

		// Top up the prefetch window: issue fetches for upcoming loads,
		// stopping at the first load whose write-back hazard has not yet
		// reached the cursor (ops before cursor have executed; cursor's
		// own op has not). An executed-but-still-flushing write-back is
		// no obstacle — the fetch goroutine waits for the flush itself.
		for usePrefetch && outstanding < opts.PrefetchDepth && scan < len(tape) {
			if tape[scan].kind != opLoad {
				scan++
				continue
			}
			if scan < cursor {
				scan++ // already executed synchronously
				continue
			}
			if hazard[scan] >= cursor {
				break // the eviction itself is still ahead of the cursor
			}
			if scan == cursor {
				// Fetching the op the cursor is about to execute gains
				// nothing; let the synchronous path handle it.
				scan++
				continue
			}
			f := &future{p: tape[scan].a, done: make(chan struct{})}
			wb := pendingWrite(scan)
			futures[scan] = f
			outstanding++
			go func() {
				defer close(f.done)
				if wb != nil {
					<-wb.done
					if wb.err != nil {
						f.err = fmt.Errorf("awaiting write-back: %w", wb.err)
						return
					}
				}
				f.data, f.err = cb.Fetch(f.p)
			}()
			scan++
		}

		switch {
		case o.kind == opUnload && useWriteback:
			// Bounded background writer: admit the new write only after
			// the oldest in-flight one lands.
			for len(writeQueue) >= opts.WritebackDepth {
				oldest := writes[writeQueue[0]]
				writeQueue = writeQueue[1:]
				<-oldest.done
				if oldest.err != nil {
					_ = drainAll()
					return r, fmt.Errorf("pigraph: write-back %d: %w", oldest.p, oldest.err)
				}
			}
			r.Unloads++
			r.AsyncUnloads++
			data, err := cb.Evict(o.a)
			if err != nil {
				_ = drainAll()
				return r, fmt.Errorf("pigraph: evict %d: %w", o.a, err)
			}
			wb := &writeback{p: o.a, done: make(chan struct{})}
			writes[cursor] = wb
			writeQueue = append(writeQueue, cursor)
			go func() {
				defer close(wb.done)
				wb.err = cb.Flush(wb.p, data)
			}()

		case o.kind == opLoad:
			var f *future
			if usePrefetch {
				f = futures[cursor]
			}
			if f != nil {
				<-f.done
				futures[cursor] = nil
				outstanding--
			} else if wb := pendingWrite(cursor); wb != nil {
				// Synchronous load with a possibly-pending write-back of
				// the same partition: wait for the flush before reading.
				<-wb.done
				if wb.err != nil {
					_ = drainAll()
					return r, fmt.Errorf("pigraph: load %d awaiting write-back: %w", o.a, wb.err)
				}
			}
			if err := applyOp(&r, o, cb, f); err != nil {
				_ = drainAll()
				return r, err
			}

		default:
			if useShardAhead && shardAnnounced[cursor] {
				shardAnnounced[cursor] = false
				shardsAhead--
			}
			if err := applyOp(&r, o, cb, nil); err != nil {
				_ = drainAll()
				return r, err
			}
		}
	}
	if err := drainAll(); err != nil {
		return r, err
	}
	return r, nil
}

// applyOp executes one tape entry, counting it in r. For opLoad, a
// non-nil future supplies the prefetched data (committed here, on the
// cursor); otherwise the load runs synchronously — through Load, or by
// composing Fetch+Commit when Load is nil, as a synchronous unload
// composes Evict+Flush when Unload is nil.
func applyOp(r *Result, o op, cb Callbacks, f *future) error {
	switch o.kind {
	case opLoad:
		r.Loads++
		var data any
		switch {
		case f != nil:
			if f.err != nil {
				return fmt.Errorf("pigraph: prefetch %d: %w", o.a, f.err)
			}
			r.PrefetchedLoads++
			data = f.data
		case cb.Load != nil:
			if err := cb.Load(o.a); err != nil {
				return fmt.Errorf("pigraph: load %d: %w", o.a, err)
			}
			return nil
		case cb.Fetch != nil && cb.Commit != nil:
			var err error
			if data, err = cb.Fetch(o.a); err != nil {
				return fmt.Errorf("pigraph: fetch %d: %w", o.a, err)
			}
		default:
			return nil
		}
		if err := cb.Commit(o.a, data); err != nil {
			// The value was fetched but never became resident: hand it
			// back so staged resources (memory budget charges) are
			// released before the error aborts the run.
			if cb.Discard != nil {
				cb.Discard(o.a, data)
			}
			return fmt.Errorf("pigraph: commit %d: %w", o.a, err)
		}
	case opUnload:
		r.Unloads++
		if cb.Unload != nil {
			if err := cb.Unload(o.a); err != nil {
				return fmt.Errorf("pigraph: unload %d: %w", o.a, err)
			}
		} else if cb.Evict != nil && cb.Flush != nil {
			data, err := cb.Evict(o.a)
			if err != nil {
				return fmt.Errorf("pigraph: evict %d: %w", o.a, err)
			}
			if err := cb.Flush(o.a, data); err != nil {
				return fmt.Errorf("pigraph: flush %d: %w", o.a, err)
			}
		}
	case opPair:
		r.Pairs++
		if cb.Pair != nil {
			if err := cb.Pair(o.a, o.b); err != nil {
				return fmt.Errorf("pigraph: pair {%d,%d}: %w", o.a, o.b, err)
			}
		}
	case opSelf:
		r.Selfs++
		if cb.Self != nil {
			if err := cb.Self(o.a); err != nil {
				return fmt.Errorf("pigraph: self shard of %d: %w", o.a, err)
			}
		}
	}
	return nil
}

// tapes validates and defaults opts and resolves the schedule into the
// op tapes an execution under them replays: one per Split segment, each
// planned from an empty slot state.
func (s *Schedule) tapes(opts ExecOptions) (ExecOptions, [][]op, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return opts, nil, err
	}
	segments := s.Split(opts.Workers)
	out := make([][]op, len(segments))
	for w, seg := range segments {
		if out[w], err = seg.plan(opts.Slots); err != nil {
			return opts, nil, err
		}
	}
	return opts, out, nil
}

// Simulate counts the operations ExecuteParallel would perform under
// opts without performing any — the Table 1 measurement, and the
// prediction the engine asserts every iteration. It replays the planned
// per-worker tapes in turn with no callbacks, which starts no goroutine
// and enables no stream. The pipelining depths do not affect the counts
// (the tapes depend on Slots and Workers alone), and PrefetchedLoads /
// AsyncUnloads — which describe how an execution overlapped its I/O —
// are always 0. The only possible error is invalid options.
func (s *Schedule) Simulate(opts ExecOptions) (Result, error) {
	opts, tapes, err := s.tapes(opts)
	if err != nil {
		return Result{}, err
	}
	var total Result
	for _, tape := range tapes {
		r, err := replay(tape, Callbacks{}, opts)
		if err != nil {
			return Result{}, err
		}
		total.Add(r)
	}
	return total, nil
}

// Validate checks that the schedule covers the PI graph exactly: every
// undirected edge processed exactly once, every self-shard exactly
// once, and no phantom work.
func (s *Schedule) Validate(g *PIGraph) error {
	if s.NumPartitions != g.NumPartitions() {
		return fmt.Errorf("pigraph: schedule over %d partitions, graph has %d", s.NumPartitions, g.NumPartitions())
	}
	type pair struct{ a, b uint32 }
	norm := func(a, b uint32) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	seenPair := make(map[pair]bool)
	seenSelf := make(map[uint32]bool)
	for _, v := range s.Visits {
		if v.Self {
			if g.SelfWeight(v.Primary) == 0 {
				return fmt.Errorf("pigraph: phantom self visit at %d", v.Primary)
			}
			if seenSelf[v.Primary] {
				return fmt.Errorf("pigraph: self-shard of %d processed twice", v.Primary)
			}
			seenSelf[v.Primary] = true
		}
		for _, peer := range v.Peers {
			if peer == v.Primary {
				return fmt.Errorf("pigraph: visit of %d lists itself as peer", peer)
			}
			if g.Weight(v.Primary, peer) == 0 {
				return fmt.Errorf("pigraph: phantom edge {%d,%d}", v.Primary, peer)
			}
			p := norm(v.Primary, peer)
			if seenPair[p] {
				return fmt.Errorf("pigraph: edge {%d,%d} processed twice", p.a, p.b)
			}
			seenPair[p] = true
		}
	}
	if len(seenPair) != g.NumEdges() {
		return fmt.Errorf("pigraph: schedule covers %d of %d edges", len(seenPair), g.NumEdges())
	}
	for i := uint32(0); int(i) < g.NumPartitions(); i++ {
		if g.SelfWeight(i) > 0 && !seenSelf[i] {
			return fmt.Errorf("pigraph: self-shard of %d never processed", i)
		}
	}
	return nil
}
