package core

import (
	"context"
	"fmt"
	"sync"

	"knnpc/internal/graph"
	"knnpc/internal/partition"
	"knnpc/internal/tuples"
)

// This file is the engine's parallel build side: phases 1–2 sharded
// across Options.BuildWorkers producer goroutines. Phase-1 state
// construction — which only the network store does up front; the
// in-process store builds each state at its first load — is
// embarrassingly parallel (each partition's state depends only on that
// partition's members and the read-only canonical profiles); phase 2
// has three independent tuple streams — one bridge generator per
// partition, the direct edges of G(t) cut into contiguous ranges, and
// the exploration stream sharded by user range with a
// per-(iteration, user) derived RNG seed — all feeding the hash table H
// through a batched emit path. H de-duplicates and counts per shard, so
// its contents, Added() tally and ShardCounts() are a pure function of
// the tuple multiset, never of the producer interleaving: the build
// output is bit-identical at every worker count.

// emitBatch is how many tuples a producer accumulates locally before
// handing them to the table in one AddBatch call. A batch scatters
// over up to m² table shards, so it must be large enough that each
// touched shard still receives a meaningful run of tuples per lock
// acquisition (at m=16 a 4096-tuple batch averages 16 per shard). It
// is also the producer's cancellation granularity: ctx is checked once
// per flush, so a canceled build stops within one batch per producer —
// a few hundred microseconds of work.
const emitBatch = 4096

// runBuildTasks executes the tasks on a pool of at most workers
// goroutines. The first error cancels the task context, remaining
// tasks are skipped, and every started task has returned before
// runBuildTasks does. A pool of one goroutine draining the feed in
// task order is the serial build.
func runBuildTasks(ctx context.Context, workers int, tasks []func(context.Context) error) error {
	workers = max(1, min(workers, len(tasks)))
	taskCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	feed := make(chan func(context.Context) error)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for task := range feed {
				if taskCtx.Err() != nil {
					continue // drain without running: the build failed
				}
				if err := task(taskCtx); err != nil {
					fail(err)
				}
			}
		}()
	}
	for _, task := range tasks {
		feed <- task
	}
	close(feed)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// A cancel that raced the last tasks may have produced no task
	// error; the build is still incomplete.
	return ctx.Err()
}

// buildEach runs fn over every partition on a pool of workers
// goroutines: the network store's phase-1 state builds and base PUTs.
// Partition states are mutually independent and the canonical profile
// store is read-only here, so the stored blobs are identical at every
// worker count; only the PUT order varies, which no reader can observe
// (Collect streams in id order).
func buildEach(ctx context.Context, workers int, parts []*partition.Data, fn func(p *partition.Data) error) error {
	workers = max(1, workers)
	tasks := make([]func(context.Context) error, 0, len(parts))
	// Stride-interleave the task order so the first wave of concurrent
	// PUTs spans the partition space: a sharded state store owns
	// contiguous partition ranges, so submitting 0,1,2,... would land
	// a whole wave on one or two shard spindles while the rest idle.
	stride := (len(parts) + workers - 1) / workers
	for r := 0; r < stride; r++ {
		for q := r; q < len(parts); q += stride {
			p := parts[q]
			tasks = append(tasks, func(context.Context) error { return fn(p) })
		}
	}
	return runBuildTasks(ctx, workers, tasks)
}

// tupleSink is what phase 2's producers emit into: H's batched add. It
// is the seam through which a test observes the batches, not a second
// table contract — the engine only ever passes a *tuples.DiskTable.
type tupleSink interface {
	AddBatch([]tuples.Tuple) error
}

// emitBatcher accumulates one producer's tuples and hands them to the
// table batch-wise. Each producer owns one batcher — no sharing — so
// the only cross-goroutine contention is inside the table's own
// per-shard locking.
type emitBatcher struct {
	ctx   context.Context
	table tupleSink
	buf   []tuples.Tuple
}

func newEmitBatcher(ctx context.Context, table tupleSink) *emitBatcher {
	return &emitBatcher{ctx: ctx, table: table, buf: make([]tuples.Tuple, 0, emitBatch)}
}

// add buffers one tuple, flushing when the batch fills.
func (b *emitBatcher) add(s, d uint32) error {
	b.buf = append(b.buf, tuples.Tuple{S: s, D: d})
	if len(b.buf) >= emitBatch {
		return b.flush()
	}
	return nil
}

// flush hands the buffered batch to the table. It doubles as the
// producer's periodic cancellation point.
func (b *emitBatcher) flush() error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if len(b.buf) == 0 {
		return nil
	}
	if err := b.table.AddBatch(b.buf); err != nil {
		return err
	}
	b.buf = b.buf[:0]
	return nil
}

// populateTable runs phase 2: the bridge, direct-edge and exploration
// tuple streams produced concurrently on the build pool, all emitting
// into H through batched adds.
func (e *Engine) populateTable(ctx context.Context, dg *graph.Digraph, parts []*partition.Data, table tupleSink) error {
	workers := e.opts.BuildWorkers
	tasks := make([]func(context.Context) error, 0, len(parts)+2*workers)

	// One bridge generator per partition: every bridge vertex lives in
	// exactly one partition, so the per-partition streams are disjoint.
	for _, p := range parts {
		p := p
		tasks = append(tasks, func(ctx context.Context) error {
			b := newEmitBatcher(ctx, table)
			if err := tuples.GenerateBridge(p, b.add); err != nil {
				return fmt.Errorf("bridge tuples: %w", err)
			}
			if err := b.flush(); err != nil {
				return fmt.Errorf("bridge tuples: %w", err)
			}
			return nil
		})
	}

	// Direct edges of G(t), cut into contiguous ranges — one per pool
	// slot, so the stream parallelizes without a shared cursor.
	edges := dg.Edges()
	for _, r := range splitRange(len(edges), workers) {
		lo, hi := r[0], r[1]
		tasks = append(tasks, func(ctx context.Context) error {
			b := newEmitBatcher(ctx, table)
			for _, edge := range edges[lo:hi] {
				if err := b.add(edge.Src, edge.Dst); err != nil {
					return fmt.Errorf("direct edges: %w", err)
				}
			}
			if err := b.flush(); err != nil {
				return fmt.Errorf("direct edges: %w", err)
			}
			return nil
		})
	}

	// Exploration stream: each user's draws come from its own
	// (Seed, iteration, user)-derived generator, so the stream is a
	// per-user pure function shardable by user range — no serial RNG
	// draw order to preserve.
	if e.opts.RandomCandidates > 0 {
		n := e.profiles.NumUsers()
		for _, r := range splitRange(n, workers) {
			lo, hi := r[0], r[1]
			tasks = append(tasks, func(ctx context.Context) error {
				b := newEmitBatcher(ctx, table)
				for u := lo; u < hi; u++ {
					rng := exploreRNG(e.opts.Seed, e.iter, uint32(u))
					for range e.opts.RandomCandidates {
						v := uint32(rng.next() % uint64(n))
						if v == uint32(u) {
							continue
						}
						if err := b.add(uint32(u), v); err != nil {
							return fmt.Errorf("random candidates: %w", err)
						}
					}
				}
				if err := b.flush(); err != nil {
					return fmt.Errorf("random candidates: %w", err)
				}
				return nil
			})
		}
	}

	return runBuildTasks(ctx, workers, tasks)
}

// splitRange cuts [0, n) into at most parts contiguous non-empty
// [lo, hi) ranges of near-equal size.
func splitRange(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// exploreRNG seeds the exploration generator of one (iteration, user)
// cell: Seed ^ hash(iter, u), a splitmix64-style finalizer so adjacent
// cells land in unrelated stream positions. Deriving the seed per user
// (instead of drawing all users from one sequential RNG) is what lets
// the exploration stream shard by user range with bit-identical output
// at every worker count.
func exploreRNG(seed int64, iter int, u uint32) splitmix64 {
	x := uint64(iter+1)*0x9E3779B97F4A7C15 + uint64(u)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return splitmix64{x: uint64(seed) ^ x}
}

// splitmix64 is the standard 64-bit SplitMix generator — tiny,
// allocation-free, and statistically solid for exploration sampling
// (unlike math/rand it costs nothing to instantiate per user).
type splitmix64 struct{ x uint64 }

func (s *splitmix64) next() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}
