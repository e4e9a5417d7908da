package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"knnpc/internal/disk"
	"knnpc/internal/netstore"
	"knnpc/internal/partition"
)

// storeTransient reports whether err is a store failure the engine's
// retry ladder (Engine.retryStore) can cure by doing the step again: a
// transport-classified transient (dropped connection, timeout, injected
// fault, RETRY response), or a stale lease — the signature of a shard
// restart that wiped the lease table out from under a live worker.
func storeTransient(err error) bool {
	return netstore.IsTransient(err) || errors.Is(err, netstore.ErrStaleLease)
}

// netOwner is the partition store behind the sharded network KV — the
// in-process partOwner's guards replaced by store-side leases. open
// builds every partition's state and PUTs it as the base blob — the
// store's fencing point — collect streams every shard's base state
// merged with the workers' accumulated partials, cleanup clears the
// cluster. Where
// partOwner refcounts one shared in-memory instance per partition,
// netOwner gives every tape worker its own private copy:
//
//   - acquire = LEASE (a fencing token) + GET (the immutable base
//     state), decoded into a worker-private partState whose
//     accumulators start from phase 1's empty baseline;
//   - folds need no lock — each worker pushes into its own copy;
//   - release with write-back = PUT of the worker's accumulator
//     partial under the fencing token, then RELEASE. The store rejects
//     a partial whose token was released or revoked (ErrStaleLease), so
//     a stale worker cannot clobber state a new epoch owns.
//
// Workers therefore never share memory, which is exactly what lets the
// same engine code run its tape workers in one process over loopback or
// spread across machines. The cost is honest: each worker's copy is
// charged to the memory budget separately, so MemoryBudget must cover
// ExecWorkers × (Slots + in-flight staging) partitions with no sharing
// discount. The result is bit-identical anyway — the partials merge
// commutatively at Collect time (see partState.mergePartial).
//
// The executor-level Loads/Unloads accounting is untouched: every tape
// load performs a real GET, every tape unload a real partial PUT, so
// measured counts still equal the phase-3 simulation exactly.
//
// For the same reason no release ever holds a partition's final
// accumulators — they exist only once COLLECT has merged every
// worker's partials — so unlike partOwner, netOwner ignores the planned
// loads arm hands it and emits every partition from collect.
type netOwner struct {
	client *netstore.Client
	budget *disk.Budget
	stats  *disk.IOStats
	k      int                       // accumulator capacity of every state fetched
	emit   func(st *partState) error // set by arm

	mu   sync.Mutex
	held map[netHold]*netLease
}

// netHold identifies one worker's tenancy of one partition. A worker
// never holds the same partition twice (its tape reloads only after the
// matching unload's flush), so the pair is unique.
type netHold struct {
	worker int
	id     uint32
}

type netLease struct {
	st    *partState
	token uint64
	size  int64
}

func newNetOwner(client *netstore.Client, budget *disk.Budget, stats *disk.IOStats, k int) *netOwner {
	return &netOwner{
		client: client,
		budget: budget,
		stats:  stats,
		k:      k,
		held:   make(map[netHold]*netLease),
	}
}

// open builds every partition's state on the build pool and PUTs it as
// the partition's base. That PUT is the store's fencing point: it
// revokes the partition's leases, drops its partials and bumps its
// epoch, so nothing an earlier attempt left reaches this one's collect.
func (o *netOwner) open(ctx context.Context, parts []*partition.Data, build stateBuilder, workers int) error {
	return buildEach(ctx, workers, parts, func(p *partition.Data) error {
		st, err := build(p)
		if err != nil {
			return err
		}
		blob := st.encode()
		if err := o.client.PutBase(st.id, blob); err != nil {
			return err
		}
		o.stats.AddWrite(int64(len(blob)))
		return nil
	})
}

func (o *netOwner) acquire(worker int, id uint32) (*partState, stateSource, error) {
	token, err := o.client.Lease(id)
	if err != nil {
		return nil, 0, fmt.Errorf("core: lease partition %d: %w", id, err)
	}
	blob, err := o.client.Get(id)
	if err != nil {
		// Best-effort: the shard that failed the GET may still honor the
		// release; a leaked lease is revoked by the next epoch anyway.
		_ = o.client.Release(id, token)
		return nil, 0, fmt.Errorf("core: load partition %d: %w", id, err)
	}
	st, err := decodePartState(blob, o.k)
	if err != nil {
		_ = o.client.Release(id, token)
		return nil, 0, err
	}
	size := int64(st.byteSize())
	if err := o.budget.Reserve(size); err != nil {
		_ = o.client.Release(id, token)
		return nil, 0, err
	}
	o.stats.AddRead(int64(len(blob)))
	o.stats.AddLoad()
	o.mu.Lock()
	o.held[netHold{worker, id}] = &netLease{st: st, token: token, size: size}
	o.mu.Unlock()
	return st, fromMedium, nil
}

func (o *netOwner) release(worker int, id uint32, writeBack bool) error {
	o.mu.Lock()
	l, ok := o.held[netHold{worker, id}]
	delete(o.held, netHold{worker, id})
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: worker %d released partition %d it does not hold", worker, id)
	}
	// The copy stops being resident no matter how the write-back fares;
	// holding the reservation after a failed write would poison every
	// later iteration (same rule as the in-process owner).
	defer o.budget.Release(l.size)
	if !writeBack {
		_ = o.client.Release(id, l.token)
		return nil
	}
	blob := l.st.encodePartial()
	if err := o.client.PutPartial(id, l.token, blob); err != nil {
		return fmt.Errorf("core: write back partition %d partial: %w", id, err)
	}
	// A stale answer here is the release succeeding twice: RELEASE is
	// retried on dropped connections, and a retry whose first send
	// landed finds the token already gone. The partial above was
	// admitted under the live token, so the write-back is complete.
	if err := o.client.Release(id, l.token); err != nil && !errors.Is(err, netstore.ErrStaleLease) {
		return fmt.Errorf("core: release lease of partition %d: %w", id, err)
	}
	o.stats.AddWrite(int64(len(blob)))
	o.stats.AddUnload()
	return nil
}

// fold needs no serialization: the state is this worker's private copy,
// and the cross-worker merge happens commutatively at Collect time.
func (o *netOwner) fold(_ uint32, fn func()) error {
	fn()
	return nil
}

// abort drops every hold after a failed run: staged memory goes back to
// the budget, leases are released best-effort (the shard may be the
// thing that failed), and nothing is written back — the next attempt,
// or the next Iterate, starts with fresh base PUTs, which revoke any
// lease the release could not reach and drop any partial the failed
// run did land.
func (o *netOwner) abort() {
	o.mu.Lock()
	held := o.held
	o.held = make(map[netHold]*netLease)
	o.mu.Unlock()
	for hold, l := range held {
		o.budget.Release(l.size)
		_ = o.client.Release(hold.id, l.token)
	}
}

func (o *netOwner) arm(_ []int, emit func(st *partState) error) { o.emit = emit }

func (o *netOwner) collect() (reads, builds int64, err error) {
	err = o.client.Collect(func(it netstore.CollectItem) error {
		st, err := decodePartState(it.Base, o.k)
		if err != nil {
			return err
		}
		volume := int64(len(it.Base))
		for _, partial := range it.Partials {
			if err := st.mergePartial(partial); err != nil {
				return err
			}
			volume += int64(len(partial))
		}
		o.stats.AddRead(volume)
		o.stats.AddLoad()
		reads++
		return o.emit(st)
	})
	return reads, 0, err
}

func (o *netOwner) cleanup() error { return o.client.Clear() }
