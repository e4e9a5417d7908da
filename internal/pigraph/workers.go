package pigraph

import (
	"fmt"
	"sync"
)

// steps reports the number of scoring steps (pairs plus the optional
// self-shard) the visit contributes — the unit the tape split balances.
func (v Visit) steps() int {
	n := len(v.Peers)
	if v.Self {
		n++
	}
	return n
}

// Split partitions the schedule's visit sequence into at most workers
// contiguous segments, cut only at pair/self boundaries so no pair ever
// spans two segments. A visit may be split between its peers: the first
// piece keeps the self-shard, later pieces repeat the primary (each
// worker's slot machine starts empty, so the repeated primary simply
// becomes that worker's first load). Segments are balanced by step
// count with the classic ceil(remaining/segments-left) quota, so the
// split — and therefore every per-worker op tape — is a deterministic
// function of (schedule, workers) alone.
//
// Split(1), or splitting a schedule with fewer steps than workers into
// per-step segments, returns the visits unchanged in order: the
// concatenation of the segments' visit sequences is always equivalent,
// step for step, to the original schedule.
func (s *Schedule) Split(workers int) []*Schedule {
	total := 0
	for _, v := range s.Visits {
		total += v.steps()
	}
	if workers <= 1 || total <= 1 {
		return []*Schedule{s}
	}
	if workers > total {
		workers = total
	}

	out := make([]*Schedule, 0, workers)
	cur := &Schedule{NumPartitions: s.NumPartitions}
	curSteps := 0
	remaining := total
	quota := func() int {
		segsLeft := workers - len(out)
		return (remaining + segsLeft - 1) / segsLeft
	}
	closeSegment := func() {
		out = append(out, cur)
		remaining -= curSteps
		cur = &Schedule{NumPartitions: s.NumPartitions}
		curSteps = 0
	}
	for _, v := range s.Visits {
		for v.steps() > 0 {
			need := quota() - curSteps
			if have := v.steps(); have <= need {
				cur.Visits = append(cur.Visits, v)
				curSteps += have
				if curSteps == quota() && len(out) < workers-1 {
					closeSegment()
				}
				break
			}
			// The visit straddles the quota: cut it at a pair boundary.
			// The head piece keeps the self-shard (it precedes every
			// pair of the visit on the tape).
			head := Visit{Primary: v.Primary, Self: v.Self}
			n := need
			if head.Self {
				n--
			}
			head.Peers = v.Peers[:n]
			v = Visit{Primary: v.Primary, Peers: v.Peers[n:]}
			cur.Visits = append(cur.Visits, head)
			curSteps += need
			closeSegment()
		}
	}
	if len(cur.Visits) > 0 {
		closeSegment()
	}
	return out
}

// ExecuteParallel is the one way to run a schedule. The visit sequence
// is Split into opts.Workers contiguous segments, each segment is
// planned into an op tape under its own Slots-slot LRU budget, and each
// tape is replayed on its own goroutine — overlapping whichever of phase
// 4's three I/O streams ExecOptions enables (partition loads ahead of
// the cursor, write-backs behind it, tuple-shard reads alongside it)
// and fully serially when none is. For any fixed (Slots, Workers) the
// op sequences — and therefore the Loads/Unloads accounting — are
// identical at every pipelining setting. cbFor is called once per
// worker, before any worker starts, to build that worker's callback
// set; distinct workers' callbacks run concurrently, so any state they
// share (a common partition store, accumulators) must be synchronized
// by the caller.
//
// The returned total is the exact field-wise sum of the per-worker
// results, which are also returned (indexed by worker). Totals are
// deterministic for a fixed (Slots, Workers): the split is
// deterministic and each segment's tape depends only on Slots. Workers
// <= 1 is the paper's single-cursor execution.
//
// Every worker runs to completion (or to its own first error) before
// the call returns — background prefetches and write-backs are drained
// per worker. The first error in worker order is returned, annotated
// with the worker index; callers that want cross-worker abort propagate
// a cancellation through their callbacks.
func (s *Schedule) ExecuteParallel(cbFor func(worker int) Callbacks, opts ExecOptions) (Result, []Result, error) {
	opts, tapes, err := s.tapes(opts)
	if err != nil {
		return Result{}, nil, err
	}
	// Build every worker's callbacks before the first worker starts —
	// the documented guarantee that lets cbFor populate shared state
	// without racing a running sibling.
	cbs := make([]Callbacks, len(tapes))
	for w := range tapes {
		cbs[w] = cbFor(w)
	}
	per := make([]Result, len(tapes))
	errs := make([]error, len(tapes))
	var wg sync.WaitGroup
	for w := range tapes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[w], errs[w] = replay(tapes[w], cbs[w], opts)
		}()
	}
	wg.Wait()

	var total Result
	for _, r := range per {
		total.Add(r)
	}
	for w, err := range errs {
		if err != nil {
			return total, per, fmt.Errorf("pigraph: worker %d/%d: %w", w, len(tapes), err)
		}
	}
	return total, per, nil
}
