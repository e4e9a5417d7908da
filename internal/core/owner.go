package core

import (
	"context"
	"fmt"
	"sync"

	"knnpc/internal/disk"
	"knnpc/internal/partition"
)

// partStore is where one iteration's partition state lives, and the
// one contract every phase reaches it through: phase 1 opens the store
// over its partitioning, phase 4 arms it with its planned loads and the
// row emitter of G(t+1), its tape workers acquire, fold into and
// release residencies, and every partition's final state reaches the
// emitter exactly once — at its last release or through collect. The
// two implementations differ only in data placement — partOwner keeps
// the blobs in this process and shares one resident instance per
// partition, netOwner keeps them behind the sharded network store and
// merges per-worker partials — and Engine.newPartStore chooses.
//
// acquire/release take the calling tape worker's index so the
// lease-holding implementation can track per-worker tenancy; the
// in-process one ignores it.
type partStore interface {
	// open starts an iteration over phase 1's partitioning: build makes
	// a partition's fresh state — its members' profiles from P(t) and
	// empty accumulators — and may run on up to workers goroutines at
	// once. Whether the store builds every state now or each one when
	// it is first needed is its own business; a second open starts
	// over, discarding whatever an earlier run left.
	open(ctx context.Context, parts []*partition.Data, build stateBuilder, workers int) error
	// arm readies one phase-4 run: loads[id] is how many times the
	// run's tapes acquire partition id (pigraph.Schedule.LoadCounts),
	// and emit receives each partition's final state. It runs before
	// any acquire of the run, and again for every retried run.
	arm(loads []int, emit func(st *partState) error)
	// acquire materializes partition id for one worker; every acquire
	// must be paired with exactly one release. src reports what it cost
	// the store.
	acquire(worker int, id uint32) (st *partState, src stateSource, err error)
	// release drops one worker's hold; writeBack false is the discard
	// path of an aborted run, which never emits. A release that holds a
	// partition's final accumulators may hand them to emit instead of
	// writing them back; emit may then run on the executor's write-back
	// goroutines, concurrently for distinct partitions.
	release(worker int, id uint32, writeBack bool) error
	// fold runs fn with whatever serialization concurrent accumulator
	// pushes into id's state need (none when workers hold private
	// copies).
	fold(id uint32, fn func()) error
	// abort force-drops every hold after a failed run, returning staged
	// memory to the budget. It must only run after every worker has
	// returned.
	abort()
	// collect hands emit, in id order, every final state no release
	// emitted, and reports how many of them it read off the medium and
	// how many it built. It runs only after every hold has been
	// released.
	collect() (reads, builds int64, err error)
	// cleanup ends the iteration's use of the store: nothing it stored
	// is readable afterwards.
	cleanup() error
	// stateAllocs reports how many partition states the store has
	// allocated since it was made: every other decode and build filled
	// a state an earlier residency released (stateFreeList).
	stateAllocs() int64
}

// stateBuilder makes partition p's fresh state — its members' profiles
// snapshotted from P(t), empty accumulators (newPartState) — filling
// into, a released state, or a new one when into is nil.
type stateBuilder func(p *partition.Data, into *partState) (*partState, error)

// stateSource is what one acquire cost the partition store.
type stateSource uint8

const (
	// fromMedium read the state off the medium: a file, a memory blob
	// or the network store.
	fromMedium stateSource = iota
	// fromPeer attached to the instance another tape worker already
	// held, which is free.
	fromPeer
	// fromBuild built the state from P(t): the partition's first load
	// in process, which moves no bytes.
	fromBuild
	numStateSources
)

// partOwner is the in-process partition store, and the one place where
// the W sharded tape executors of multi-worker phase 4 meet. Each
// worker's op tape loads and unloads partitions independently, but the
// medium must never see two operations on the same partition at once
// and two workers must never fold into the same accumulator
// concurrently — partOwner guarantees both with one guard per
// partition.
//
// Residency is reference-counted: the first worker to acquire a
// partition pays the real read (and the memory-budget charge); workers
// that acquire it while it is already live attach to the same in-memory
// instance for free. Releases are symmetric — only the last reference
// returns the budget and disposes of the instance. Sharing one instance
// is what makes concurrent folds correct: every worker's accumulator
// pushes land in the same TopK (under the partition's fold lock), so no
// write-back can overwrite another worker's folds. It is also why this
// placement keeps sharing instead of netOwner's private copies: a tape
// load that attaches does not queue on the one spindle
// (IterationStats.Attaches counts them; docs/ARCHITECTURE.md has the
// measurement). The executor-level Loads/Unloads accounting is
// untouched: each worker's tape counts its own ops whether the acquire
// attached or read.
//
// Nothing is written that nothing has changed. open writes no state:
// it keeps phase 1's partitioning and build function, and every guard
// starts fresh. The first acquire of a fresh partition builds its
// state from P(t) — nothing has changed it yet, so a stored copy would
// hold only what P(t) already does — and a guard stays fresh until its
// first write-back; later acquires read the medium.
//
// Sharing also means some release holds each partition's final
// accumulators. arm gives every guard a countdown of the partition's
// planned acquires; a last reference dropped while acquires are still
// to come writes the instance back, and the one dropped after the last
// planned acquire hands it to the row emitter and writes nothing — the
// only reader of those bytes would have been collect, copying the same
// ids out. collect therefore touches only partitions no tape acquired,
// and builds them: their accumulators are still empty. Every state
// written is read back exactly once, and none is read at collect.
//
// A state is serialized on every write and deserialized on every read
// on either medium, so the in-memory one exercises the same code paths
// as the file one; the latter additionally pays real file I/O, counted
// in IOStats, and — with a device — sleeps the modeled time of each
// access on the engine's emulated spindle, so phase 4 feels the latency
// of the paper's hardware class even when the page cache absorbs the
// real I/O.
//
// A state's memory lives for the store, not for one residency: every
// build and read fills a state taken from the store's free list, and the
// release that disposes of an instance gives it back once its write or
// emit has returned, as collect does after emitting what it built. A
// discarded, aborted or failed instance is dropped instead. So the
// store allocates about as many states as were ever resident at once,
// not one per load (IterationStats.StateAllocs).
type partOwner struct {
	scratch *disk.Scratch // nil = blobs stay in memory
	device  *disk.Device  // nil = no emulated latency
	stats   *disk.IOStats
	budget  *disk.Budget
	k       int // accumulator capacity of every stored state
	// filebufs recycles the buffers states are encoded into and read
	// into on the file medium: a blob is dead once written or decoded
	// (decoding copies into the state's own arrays), so each concurrent
	// read or write borrows one instead of allocating a partition's
	// worth of bytes.
	filebufs sync.Pool // *[]byte
	free     stateFreeList
	guards   []partGuard
	build    stateBuilder              // set by open
	emit     func(st *partState) error // set by arm
}

type partGuard struct {
	// mu serializes open/acquire/release — including the medium I/O and
	// the builds they perform — for this partition. Cross-partition
	// operations never contend.
	mu   sync.Mutex
	refs int
	st   *partState
	// size is the memory-budget charge the resident instance was
	// admitted with. Folds grow the instance's encoding afterwards, so
	// the release returns this, not the instance's byteSize.
	size int64
	// part is the partition open installed, and fresh records that no
	// state of it has been written since: its next load builds from
	// P(t) instead of reading the medium.
	part  *partition.Data
	fresh bool
	// planned is the armed run's acquire count for this partition and
	// left the acquires still to come: the release that drops the last
	// reference at left == 0 holds the final accumulators.
	planned, left int
	// stored records that the medium holds a blob for this partition.
	stored bool
	// blob is the memory medium's copy. Each write encodes over the
	// previous one: a state barely changes size between residencies, so
	// rewriting in place makes an unload allocation-free.
	blob []byte
	// fold serializes accumulator pushes into the shared instance. It
	// is separate from mu so a fold never waits behind another
	// partition holder's medium I/O: folds only happen while the folder
	// holds a reference, which excludes the refs==0 medium operations.
	fold sync.Mutex
}

// newPartOwner builds the in-process store over numPartitions
// partitions; scratch nil keeps the blobs in memory.
func newPartOwner(numPartitions int, scratch *disk.Scratch, device *disk.Device, budget *disk.Budget, stats *disk.IOStats, k int) *partOwner {
	return &partOwner{
		scratch: scratch,
		device:  device,
		stats:   stats,
		budget:  budget,
		k:       k,
		guards:  make([]partGuard, numPartitions),
	}
}

func (o *partOwner) guard(id uint32) (*partGuard, error) {
	if int(id) >= len(o.guards) {
		return nil, fmt.Errorf("core: partition %d out of range [0,%d)", id, len(o.guards))
	}
	return &o.guards[id], nil
}

func (o *partOwner) path(id uint32) string {
	return o.scratch.Path(fmt.Sprintf("state-%d.bin", id))
}

// borrow returns a blob buffer from the pool; the caller stores the
// (possibly regrown) slice back through it before returning it.
func (o *partOwner) borrow() *[]byte {
	if b, ok := o.filebufs.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

// write serializes st onto the medium. The caller holds g.mu.
func (o *partOwner) write(g *partGuard, st *partState) error {
	g.fresh = false
	if o.scratch == nil {
		g.blob = st.appendTo(g.blob[:0])
		g.stored = true
		return nil
	}
	buf := o.borrow()
	defer o.filebufs.Put(buf)
	*buf = st.appendTo((*buf)[:0])
	if err := disk.WriteFile(o.stats, o.path(st.id), *buf); err != nil {
		return err
	}
	g.stored = true
	o.device.Write(int64(len(*buf)))
	return nil
}

// read deserializes partition id off the medium into into. The caller
// holds g.mu.
func (o *partOwner) read(g *partGuard, id uint32, into *partState) (*partState, error) {
	if !g.stored {
		return nil, fmt.Errorf("core: partition %d has no stored state", id)
	}
	if o.scratch == nil {
		return decodePartState(g.blob, o.k, into)
	}
	buf := o.borrow()
	defer o.filebufs.Put(buf)
	blob, err := disk.ReadFile(o.stats, o.path(id), *buf)
	if err != nil {
		return nil, err
	}
	*buf = blob
	o.device.Read(int64(len(blob)))
	return decodePartState(blob, o.k, into)
}

// open installs phase 1's partitioning and marks every partition of it
// fresh; it writes nothing. A build charges no emulated device time,
// because no bytes move.
func (o *partOwner) open(_ context.Context, parts []*partition.Data, build stateBuilder, _ int) error {
	o.build = build
	for i := range o.guards {
		g := &o.guards[i]
		g.mu.Lock()
		g.part, g.fresh = nil, false
		g.mu.Unlock()
	}
	for _, p := range parts {
		g, err := o.guard(p.ID)
		if err != nil {
			return err
		}
		g.mu.Lock()
		g.part, g.fresh = p, true
		g.mu.Unlock()
	}
	return nil
}

func (o *partOwner) arm(loads []int, emit func(st *partState) error) {
	o.emit = emit
	for i := range o.guards {
		g := &o.guards[i]
		g.mu.Lock()
		g.planned, g.left = loads[i], loads[i]
		g.mu.Unlock()
	}
}

// acquire materializes partition id, attaching to the live shared
// instance when another worker already holds it and building or
// reading it into a state off the free list (charging the memory
// budget) otherwise. A failed build, read or reservation leaves the
// guard as it was and gives the state back: no one else ever saw it.
// An acquire the armed plan does not account for is refused: the
// partition's final state may already have been emitted.
func (o *partOwner) acquire(_ int, id uint32) (*partState, stateSource, error) {
	g, err := o.guard(id)
	if err != nil {
		return nil, 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.left == 0 {
		return nil, 0, fmt.Errorf("core: acquire of partition %d beyond its %d planned acquires", id, g.planned)
	}
	if g.refs > 0 {
		g.refs++
		g.left--
		return g.st, fromPeer, nil
	}
	into := o.free.take()
	var st *partState
	src := fromMedium
	if g.fresh {
		src = fromBuild
		st, err = o.build(g.part, into)
	} else {
		st, err = o.read(g, id, into)
	}
	if err != nil {
		o.free.give(into)
		return nil, 0, err
	}
	size := int64(st.byteSize())
	if err := o.budget.Reserve(size); err != nil {
		o.free.give(st)
		return nil, 0, err
	}
	if src == fromMedium {
		o.stats.AddLoad()
	}
	g.st, g.size, g.refs = st, size, 1
	g.left--
	return st, src, nil
}

// release drops one reference to partition id. Earlier releases are
// free; the last reference returns the memory-budget charge and
// disposes of the instance, which by then carries every worker's folds.
// While planned acquires are still to come it writes the instance back
// to the medium. After the last one it emits the instance's rows of
// G(t+1) instead and writes nothing. Either way the instance then goes
// back to the free list. With writeBack false (the discard path of an
// aborted run, whose result is thrown away anyway) it does neither and
// drops the instance, as it does when the write or emit fails.
func (o *partOwner) release(_ int, id uint32, writeBack bool) error {
	g, err := o.guard(id)
	if err != nil {
		return err
	}
	g.mu.Lock()
	if g.refs <= 0 {
		g.mu.Unlock()
		return fmt.Errorf("core: release of partition %d with no outstanding reference", id)
	}
	g.refs--
	if g.refs > 0 {
		g.mu.Unlock()
		return nil
	}
	st, size, final := g.st, g.size, g.left == 0
	g.st, g.size = nil, 0
	if writeBack && !final {
		err = o.write(g, st)
		if err == nil {
			o.stats.AddUnload()
		}
	}
	g.mu.Unlock()
	// No acquire can reach a final instance any more, so it is emitted
	// outside the guard.
	if writeBack && final {
		err = o.emit(st)
	}
	// Release the budget even when the write or emit failed: the state
	// is no longer resident and the failure aborts the iteration, so
	// keeping the reservation would poison every later iteration.
	o.budget.Release(size)
	if writeBack && err == nil {
		o.free.give(st)
	}
	return err
}

// fold runs fn with partition id's fold lock held, so concurrent
// workers' accumulator pushes into the shared instance serialize.
func (o *partOwner) fold(id uint32, fn func()) error {
	g, err := o.guard(id)
	if err != nil {
		return err
	}
	g.fold.Lock()
	fn()
	g.fold.Unlock()
	return nil
}

// abort force-drops every reference still held after a failed
// execution, returning the staged memory to the budget without writing
// anything back (the iteration's result is discarded; the next Iterate
// starts over from phase 1).
func (o *partOwner) abort() {
	for i := range o.guards {
		g := &o.guards[i]
		g.mu.Lock()
		if g.refs > 0 {
			o.budget.Release(g.size)
			g.refs, g.st, g.size = 0, nil, 0
		}
		g.mu.Unlock()
	}
}

// collect builds and emits the partitions no tape acquired, each into a
// state off the free list that it gives back once emitted, and then
// drops the list; every other partition was emitted by its final
// release. It reads nothing.
func (o *partOwner) collect() (reads, builds int64, err error) {
	defer o.free.drop()
	for i := range o.guards {
		g := &o.guards[i]
		g.mu.Lock()
		if g.left > 0 || g.refs > 0 {
			g.mu.Unlock()
			return 0, builds, fmt.Errorf("core: collect before partition %d's run finished (%d references held, %d planned acquires to come)", i, g.refs, g.left)
		}
		if g.planned > 0 || g.part == nil {
			g.mu.Unlock()
			continue
		}
		if !g.fresh {
			g.mu.Unlock()
			return 0, builds, fmt.Errorf("core: partition %d has a written state no planned acquire reads", i)
		}
		into := o.free.take()
		st, err := o.build(g.part, into)
		g.mu.Unlock()
		if err != nil {
			o.free.give(into)
			return 0, builds, err
		}
		builds++
		if err := o.emit(st); err != nil {
			return 0, builds, err
		}
		o.free.give(st)
	}
	return 0, builds, nil
}

// cleanup resets every guard and drops the memory medium's blobs. It
// removes no file: the next store over the same scratch rewrites
// state-<p>.bin in place when it first writes p (disk.WriteFile), which
// costs a fraction of re-creating it, and until then p's guard is not
// stored, so no read ever sees a file an earlier iteration wrote. The
// files go when the engine's scratch closes.
func (o *partOwner) cleanup() error {
	for i := range o.guards {
		g := &o.guards[i]
		g.mu.Lock()
		g.stored, g.blob = false, nil
		g.part, g.fresh = nil, false
		g.mu.Unlock()
	}
	return nil
}

func (o *partOwner) stateAllocs() int64 { return o.free.allocated() }
