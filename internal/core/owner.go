package core

import (
	"fmt"
	"sync"

	"knnpc/internal/disk"
)

// partStore is where one iteration's partition state lives, and the
// one contract every phase reaches it through: phase 1 puts each fresh
// state, phase 4's tape workers acquire, fold into and release
// residencies, and the assembly step collects every final state. The
// two implementations differ only in data placement — partOwner keeps
// the blobs in this process and shares one resident instance per
// partition, netOwner keeps them behind the sharded network store and
// merges per-worker partials — and Engine.newPartStore chooses.
//
// acquire/release take the calling tape worker's index so the
// lease-holding implementation can track per-worker tenancy; the
// in-process one ignores it.
type partStore interface {
	// put persists a freshly built state (phase 1). Concurrent puts of
	// distinct partitions are safe.
	put(st *partState) error
	// acquire materializes partition id for one worker; every acquire
	// must be paired with exactly one release.
	acquire(worker int, id uint32) (*partState, error)
	// release drops one worker's hold; writeBack false is the discard
	// path of an aborted run.
	release(worker int, id uint32, writeBack bool) error
	// fold runs fn with whatever serialization concurrent accumulator
	// pushes into id's state need (none when workers hold private
	// copies).
	fold(id uint32, fn func()) error
	// abort force-drops every hold after a failed run, returning staged
	// memory to the budget. It must only run after every worker has
	// returned.
	abort()
	// collect streams every partition's final state in id order. It
	// runs only after every hold has been released.
	collect(emit func(st *partState) error) error
	// cleanup removes all stored state.
	cleanup() error
}

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
// writes the instance back and returns its budget. Sharing one instance
// is what makes concurrent folds correct: every worker's accumulator
// pushes land in the same TopK (under the partition's fold lock), so no
// write-back can overwrite another worker's folds. It is also why this
// placement keeps sharing instead of netOwner's private copies: about
// half the tape loads of a two-worker run attach instead of queueing on
// the one spindle (docs/ARCHITECTURE.md has the measurement). The
// executor-level Loads/Unloads accounting is untouched: each worker's
// tape counts its own ops whether the acquire attached or read.
//
// A state is serialized on every write and deserialized on every read
// on either medium, so the in-memory one exercises the same code paths
// as the file one; the latter additionally pays real file I/O, counted
// in IOStats, and — with a device — sleeps the modeled time of each
// access on the engine's emulated spindle, so phase 4 feels the latency
// of the paper's hardware class even when the page cache absorbs the
// real I/O.
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
	guards   []partGuard
}

type partGuard struct {
	// mu serializes put/acquire/release — including the medium I/O they
	// perform — for this partition. Cross-partition operations never
	// contend.
	mu   sync.Mutex
	refs int
	st   *partState
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
	g.stored = true // before the write, so cleanup removes a torn file too
	if o.scratch == nil {
		g.blob = st.appendTo(g.blob[:0])
		return nil
	}
	buf := o.borrow()
	defer o.filebufs.Put(buf)
	*buf = st.appendTo((*buf)[:0])
	if err := disk.WriteFile(o.stats, o.path(st.id), *buf); err != nil {
		return err
	}
	o.device.Write(int64(len(*buf)))
	return nil
}

// read deserializes partition id off the medium. The caller holds g.mu.
func (o *partOwner) read(g *partGuard, id uint32) (*partState, error) {
	if !g.stored {
		return nil, fmt.Errorf("core: partition %d has no stored state", id)
	}
	if o.scratch == nil {
		return decodePartState(g.blob, o.k)
	}
	buf := o.borrow()
	defer o.filebufs.Put(buf)
	blob, err := disk.ReadFile(o.stats, o.path(id), *buf)
	if err != nil {
		return nil, err
	}
	*buf = blob
	o.device.Read(int64(len(blob)))
	return decodePartState(blob, o.k)
}

func (o *partOwner) put(st *partState) error {
	g, err := o.guard(st.id)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return o.write(g, st)
}

// acquire materializes partition id, attaching to the live shared
// instance when another worker already holds it and reading the medium
// (charging the memory budget) otherwise.
func (o *partOwner) acquire(_ int, id uint32) (*partState, error) {
	g, err := o.guard(id)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refs > 0 {
		g.refs++
		return g.st, nil
	}
	st, err := o.read(g, id)
	if err != nil {
		return nil, err
	}
	if err := o.budget.Reserve(int64(st.byteSize())); err != nil {
		return nil, err
	}
	o.stats.AddLoad()
	g.st, g.refs = st, 1
	return st, nil
}

// release drops one reference to partition id. The last reference
// writes the instance back to the medium and returns its memory-budget
// charge; with writeBack false (the discard path of an aborted run,
// where the iteration's result is thrown away anyway) the instance is
// dropped without the write. Earlier releases are free: the write-back
// is deferred to the final holder so it carries every worker's folds.
func (o *partOwner) release(_ int, id uint32, writeBack bool) error {
	g, err := o.guard(id)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refs <= 0 {
		return fmt.Errorf("core: release of partition %d with no outstanding reference", id)
	}
	g.refs--
	if g.refs > 0 {
		return nil
	}
	st := g.st
	g.st = nil
	var writeErr error
	if writeBack {
		writeErr = o.write(g, st)
	}
	// Release the budget even when the write failed: the state is no
	// longer resident and the failed write aborts the iteration, so
	// keeping the reservation would poison every later iteration.
	o.budget.Release(int64(st.byteSize()))
	if writeErr != nil {
		return writeErr
	}
	if writeBack {
		o.stats.AddUnload()
	}
	return nil
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
// rebuilds all partition state from phase 1).
func (o *partOwner) abort() {
	for i := range o.guards {
		g := &o.guards[i]
		g.mu.Lock()
		if g.refs > 0 {
			o.budget.Release(int64(g.st.byteSize()))
			g.refs, g.st = 0, nil
		}
		g.mu.Unlock()
	}
}

func (o *partOwner) collect(emit func(st *partState) error) error {
	for i := range o.guards {
		g := &o.guards[i]
		g.mu.Lock()
		if !g.stored {
			g.mu.Unlock()
			continue
		}
		st, err := o.read(g, uint32(i))
		g.mu.Unlock()
		if err != nil {
			return err
		}
		if err := emit(st); err != nil {
			return err
		}
	}
	return nil
}

func (o *partOwner) cleanup() error {
	var firstErr error
	for i := range o.guards {
		g := &o.guards[i]
		g.mu.Lock()
		if g.stored && o.scratch != nil {
			if err := disk.Remove(o.path(uint32(i))); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		g.stored, g.blob = false, nil
		g.mu.Unlock()
	}
	return firstErr
}
