package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"knnpc/internal/disk"
)

// TestShardedWorkersMatchSerialEngine is the end-to-end invariant of
// multi-worker phase 4: for W ∈ {2, 4}, on both the in-memory and the
// on-disk store, the sharded engine must reproduce the single-cursor
// engine's graph trajectory bit for bit, its per-worker op counts must
// sum to the deterministic (Slots, W) totals (the engine additionally
// asserts measured == simulated internally every iteration), every tape
// load must be either a medium read or an attach to another worker's
// instance (none attach at W=1), and the scored tuple count must be
// identical. Run under -race in CI — the partition store's shared
// instances and concurrent folds are the point of this test.
func TestShardedWorkersMatchSerialEngine(t *testing.T) {
	const users, iters = 300, 3
	for _, onDisk := range []bool{false, true} {
		base := Options{K: 6, NumPartitions: 8, OnDisk: onDisk, TupleBatch: 64, Seed: 13}
		serialStats, serialGraph := runEngine(t, base, users, iters)

		for _, workers := range []int{2, 4} {
			sharded := base
			sharded.ExecWorkers = workers
			sharded.Workers = 2
			if onDisk {
				// Full per-worker pipeline on the real-file path.
				sharded.PrefetchDepth = 2
				sharded.AsyncWriteback = true
				sharded.ShardPrefetch = 2
			}
			name := fmt.Sprintf("ondisk=%v workers=%d", onDisk, workers)
			shardStats, shardGraph := runEngine(t, sharded, users, iters)

			if serialGraph.DiffEdges(shardGraph) != 0 {
				t.Fatalf("%s: sharded execution produced a different KNN graph", name)
			}
			for i := range serialStats {
				s, p := serialStats[i], shardStats[i]
				if p.ExecWorkers != workers {
					t.Errorf("%s iter %d: ran %d tape segments", name, i, p.ExecWorkers)
				}
				if len(p.WorkerOps) != p.ExecWorkers {
					t.Fatalf("%s iter %d: %d per-worker op counts for %d workers", name, i, len(p.WorkerOps), p.ExecWorkers)
				}
				var sum int64
				for _, ops := range p.WorkerOps {
					sum += ops
				}
				if sum != p.Ops() {
					t.Errorf("%s iter %d: per-worker ops sum %d, total %d", name, i, sum, p.Ops())
				}
				if p.MediumReads+p.Attaches != p.Loads || s.MediumReads != s.Loads || s.Attaches != 0 {
					t.Errorf("%s iter %d: sharded %d reads + %d attaches for %d loads, serial %d + %d for %d",
						name, i, p.MediumReads, p.Attaches, p.Loads, s.MediumReads, s.Attaches, s.Loads)
				}
				if s.TuplesScored != p.TuplesScored || s.EdgeChanges != p.EdgeChanges {
					t.Fatalf("%s iter %d: sharded scored=%d changes=%d, serial scored=%d changes=%d",
						name, i, p.TuplesScored, p.EdgeChanges, s.TuplesScored, s.EdgeChanges)
				}
				if s.ExecWorkers != 1 || len(s.WorkerOps) != 1 || s.WorkerOps[0] != s.Ops() {
					t.Errorf("iter %d: serial engine reported workers=%d ops=%v", i, s.ExecWorkers, s.WorkerOps)
				}
			}
		}
	}
}

// TestShardReadsAtMostOnePerPIStep: phase 4 opens one spill file per PI
// edge and one per self shard at most — both directions of a partition
// pair share a shard — at every iteration, with read-ahead and two tape
// workers; a table with no scratch directory opens none.
func TestShardReadsAtMostOnePerPIStep(t *testing.T) {
	const users, iters = 300, 3
	for _, onDisk := range []bool{false, true} {
		opts := Options{K: 6, NumPartitions: 8, OnDisk: onDisk, TupleBatch: 8, Seed: 13,
			ExecWorkers: 2, PrefetchDepth: 2, AsyncWriteback: true, ShardPrefetch: 2}
		stats, _ := runEngine(t, opts, users, iters)
		for i, st := range stats {
			limit := int64(st.PIEdges + st.NumPartitions)
			if onDisk && (st.ShardReads == 0 || st.ShardReads > limit) || !onDisk && st.ShardReads != 0 {
				t.Errorf("ondisk=%v iter %d: %d spill files read for %d PI edges over %d partitions",
					onDisk, i, st.ShardReads, st.PIEdges, st.NumPartitions)
			}
		}
	}
}

// TestShardedWorkersDeterministicOps: the per-worker op breakdown is a
// pure function of (schedule, Slots, ExecWorkers) — two engines with
// identical seeds must report identical WorkerOps vectors, and the
// totals must be stable across runs (this is what makes the workers
// bench rungs comparable across CI runs).
func TestShardedWorkersDeterministicOps(t *testing.T) {
	const users = 250
	opts := Options{K: 5, NumPartitions: 8, ExecWorkers: 3, Slots: 3, Seed: 7}
	aStats, _ := runEngine(t, opts, users, 2)
	bStats, _ := runEngine(t, opts, users, 2)
	for i := range aStats {
		a, b := aStats[i], bStats[i]
		if a.Ops() != b.Ops() || len(a.WorkerOps) != len(b.WorkerOps) {
			t.Fatalf("iter %d: ops %d/%v vs %d/%v", i, a.Ops(), a.WorkerOps, b.Ops(), b.WorkerOps)
		}
		for w := range a.WorkerOps {
			if a.WorkerOps[w] != b.WorkerOps[w] {
				t.Fatalf("iter %d worker %d: %d vs %d ops across identical runs", i, w, a.WorkerOps[w], b.WorkerOps[w])
			}
		}
	}
}

// TestShardedWorkersBudgetReleased: the partition store charges each
// shared partition instance to the memory budget once and returns
// every byte by the end of the iteration, at any worker count.
func TestShardedWorkersBudgetReleased(t *testing.T) {
	store := testStore(t, 200, 5)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 6, ExecWorkers: 4, PrefetchDepth: 2,
		MemoryBudget: 1 << 22, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecWorkers != 4 {
		t.Fatalf("ran %d workers", st.ExecWorkers)
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes still reserved after iteration", used)
	}
	if eng.budget.Peak() == 0 {
		t.Fatal("budget never charged")
	}
}

// TestCancelMidPhase4 pins the satellite cancellation contract: a
// long emulated-HDD multi-worker phase 4 cancelled mid-run must return
// ctx.Err() promptly from every worker with all background flushes
// drained and all staged memory released — and the abort must not
// corrupt anything a subsequent Iterate needs: retrying the same
// iteration with a live context must produce exactly the graph an
// uncancelled engine computes.
func TestCancelMidPhase4(t *testing.T) {
	const users = 500
	opts := Options{
		K: 6, NumPartitions: 8, ExecWorkers: 2, Workers: 2,
		PrefetchDepth: 2, AsyncWriteback: true, ShardPrefetch: 2,
		OnDisk: true, EmulateDisk: &disk.HDD, TupleBatch: 64, Seed: 23,
		MemoryBudget: 1 << 24,
	}

	// Reference trajectory: two uncancelled iterations.
	refStats, refGraph := runEngine(t, opts, users, 2)

	store := testStore(t, users, 42)
	cOpts := opts
	cOpts.ScratchDir = t.TempDir()
	eng, err := New(store, cOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Iteration 0 completes normally.
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Iteration 1 is cancelled mid-phase-4. The full iteration takes
	// hundreds of milliseconds of modeled HDD time, so a 30ms deadline
	// lands inside phase 4; the return must not wait for the tape to
	// finish.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	start := time.Now()
	_, err = eng.Iterate(ctx)
	elapsed := time.Since(start)
	cancel()
	if err == nil {
		t.Fatal("cancelled iteration returned no error (workload too small to cancel mid-run?)")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled iteration returned %v, want ctx.Err()", err)
	}
	if full := refStats[1].Phases.Total(); elapsed > full/2+250*time.Millisecond {
		t.Errorf("cancelled iteration took %v — not prompt against a %v full iteration", elapsed, full)
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d staged budget bytes leaked by the aborted iteration", used)
	}

	// Retrying the same iteration must reproduce the uncancelled
	// engine's graph exactly: the abort wrote nothing partial that the
	// rebuild-from-phase-1 path could observe.
	st, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatalf("iteration after cancellation failed: %v", err)
	}
	if st.Iteration != 1 {
		t.Fatalf("retried iteration numbered %d, want 1", st.Iteration)
	}
	if refGraph.DiffEdges(eng.Graph()) != 0 {
		t.Fatal("graph after cancel-and-retry differs from the uncancelled trajectory")
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes still reserved after recovery iteration", used)
	}
}

// TestExecWorkersValidation rejects a negative worker count at
// construction, like every other phase-4 budget.
func TestExecWorkersValidation(t *testing.T) {
	store := testStore(t, 20, 1)
	if _, err := New(store, Options{K: 3, ExecWorkers: -1}); err == nil {
		t.Error("ExecWorkers=-1 accepted")
	}
}
