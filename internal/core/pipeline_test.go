package core

import (
	"context"
	"fmt"
	"testing"

	"knnpc/internal/graph"
	"knnpc/internal/pigraph"
)

// runEngine drives iters iterations and returns the per-iteration
// stats plus the final graph.
func runEngine(t *testing.T, opts Options, users, iters int) ([]*IterationStats, *graph.KNN) {
	t.Helper()
	store := testStore(t, users, 42)
	if opts.OnDisk {
		opts.ScratchDir = t.TempDir()
	}
	eng, err := New(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var all []*IterationStats
	for i := 0; i < iters; i++ {
		st, err := eng.Iterate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, st)
	}
	return all, eng.Graph()
}

// TestPipelinedMatchesSerialEngine is the end-to-end invariant of the
// pipelined executor: with identical seeds, an on-disk engine with
// Slots=2/PrefetchDepth=0 (the paper's serial setting) and one with
// prefetch enabled plus multi-worker scoring must produce the same
// graph trajectory and the exact same Loads/Unloads accounting; only
// PrefetchedLoads may differ.
func TestPipelinedMatchesSerialEngine(t *testing.T) {
	const users, iters = 300, 3
	base := Options{K: 6, NumPartitions: 6, OnDisk: true, Seed: 9}

	serial := base
	serialStats, serialGraph := runEngine(t, serial, users, iters)

	pipelined := base
	pipelined.PrefetchDepth = 2
	pipelined.Workers = 4
	pipeStats, pipeGraph := runEngine(t, pipelined, users, iters)

	if serialGraph.DiffEdges(pipeGraph) != 0 {
		t.Fatal("pipelined execution produced a different KNN graph")
	}
	var prefetched int64
	for i := range serialStats {
		s, p := serialStats[i], pipeStats[i]
		if s.Loads != p.Loads || s.Unloads != p.Unloads {
			t.Fatalf("iter %d: pipelined %d/%d loads/unloads, serial %d/%d",
				i, p.Loads, p.Unloads, s.Loads, s.Unloads)
		}
		if s.TuplesScored != p.TuplesScored || s.EdgeChanges != p.EdgeChanges {
			t.Fatalf("iter %d: pipelined scored=%d changes=%d, serial scored=%d changes=%d",
				i, p.TuplesScored, p.EdgeChanges, s.TuplesScored, s.EdgeChanges)
		}
		if s.PrefetchedLoads != 0 {
			t.Fatalf("iter %d: serial engine reported %d prefetched loads", i, s.PrefetchedLoads)
		}
		prefetched += p.PrefetchedLoads
	}
	if prefetched == 0 {
		t.Fatal("pipelined engine never prefetched a load")
	}
}

// TestPipelinedInMemoryStore exercises the prefetch path against the
// mem state store too (concurrent Load-while-Put hits the map, not
// files), with exploration and profile churn in the mix.
func TestPipelinedInMemoryStore(t *testing.T) {
	const users, iters = 200, 3
	base := Options{K: 5, NumPartitions: 5, RandomCandidates: 2, Seed: 3}

	serialStats, serialGraph := runEngine(t, base, users, iters)

	pipelined := base
	pipelined.PrefetchDepth = 3
	pipelined.Workers = 2
	pipeStats, pipeGraph := runEngine(t, pipelined, users, iters)

	if serialGraph.DiffEdges(pipeGraph) != 0 {
		t.Fatal("pipelined execution produced a different KNN graph")
	}
	for i := range serialStats {
		if serialStats[i].Ops() != pipeStats[i].Ops() {
			t.Fatalf("iter %d: ops %d vs %d", i, pipeStats[i].Ops(), serialStats[i].Ops())
		}
	}
}

// TestWiderSlotBudgetReducesOps checks the S-slot generalization
// end to end: more resident partitions can only reduce the measured
// load/unload operations, and the engine's simulated-vs-measured
// assertion holds for non-default S.
func TestWiderSlotBudgetReducesOps(t *testing.T) {
	const users = 250
	twoSlot := Options{K: 5, NumPartitions: 8, OnDisk: true, Seed: 4}
	twoStats, twoGraph := runEngine(t, twoSlot, users, 2)

	fourSlot := twoSlot
	fourSlot.Slots = 4
	fourSlot.PrefetchDepth = 1
	fourStats, fourGraph := runEngine(t, fourSlot, users, 2)

	if twoGraph.DiffEdges(fourGraph) != 0 {
		t.Fatal("slot budget changed the computed KNN graph")
	}
	for i := range twoStats {
		if fourStats[i].Ops() > twoStats[i].Ops() {
			t.Fatalf("iter %d: 4 slots cost %d ops, 2 slots cost %d", i, fourStats[i].Ops(), twoStats[i].Ops())
		}
	}
}

// TestPrefetchChargesMemoryBudget: in-flight prefetches count against
// MemoryBudget the moment they are fetched — a budget with slack for
// the staging partitions succeeds, and an aborted run releases every
// staged reservation (engine budget is cumulative across iterations,
// so a leak would poison the next call).
func TestPrefetchChargesMemoryBudget(t *testing.T) {
	store := testStore(t, 120, 5)
	eng, err := New(store, Options{K: 4, NumPartitions: 6, PrefetchDepth: 2, MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PrefetchedLoads == 0 {
		t.Fatal("no loads prefetched")
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes still reserved after iteration", used)
	}
	if eng.budget.Peak() == 0 {
		t.Fatal("budget never charged")
	}
}

// TestFullPipelineMatchesSerialEngine is the end-to-end invariant of
// the three-stream pipeline, and the write-back hazard's engine-level
// race test: across a Slots × PrefetchDepth matrix, an on-disk engine
// with async write-back and shard prefetch must reproduce the serial
// engine's graph trajectory bit for bit — a prefetched load of p
// issued while p's async write is in flight that did NOT observe the
// written state would diverge here — and the Loads/Unloads accounting
// must be identical to the serial executor at every setting (the
// engine additionally asserts measured == simulated internally every
// iteration).
func TestFullPipelineMatchesSerialEngine(t *testing.T) {
	const users, iters = 250, 2
	for _, slots := range []int{2, 4} {
		for _, depth := range []int{1, 3} {
			base := Options{K: 5, NumPartitions: 6, OnDisk: true, Slots: slots, TupleBatch: 64, Seed: 21}
			serialStats, serialGraph := runEngine(t, base, users, iters)

			full := base
			full.PrefetchDepth = depth
			full.AsyncWriteback = true
			full.ShardPrefetch = depth
			full.Workers = 2
			fullStats, fullGraph := runEngine(t, full, users, iters)

			name := fmt.Sprintf("slots=%d depth=%d", slots, depth)
			if serialGraph.DiffEdges(fullGraph) != 0 {
				t.Fatalf("%s: full pipeline produced a different KNN graph", name)
			}
			var asyncUnloads, shardBytes int64
			for i := range serialStats {
				s, p := serialStats[i], fullStats[i]
				if s.Loads != p.Loads || s.Unloads != p.Unloads {
					t.Fatalf("%s iter %d: pipeline %d/%d loads/unloads, serial %d/%d",
						name, i, p.Loads, p.Unloads, s.Loads, s.Unloads)
				}
				if s.AsyncUnloads != 0 || s.PrefetchedShardBytes != 0 {
					t.Fatalf("%s iter %d: serial engine reported async work: %d unloads, %d shard bytes",
						name, i, s.AsyncUnloads, s.PrefetchedShardBytes)
				}
				if p.AsyncUnloads != p.Unloads {
					t.Errorf("%s iter %d: %d of %d unloads async", name, i, p.AsyncUnloads, p.Unloads)
				}
				asyncUnloads += p.AsyncUnloads
				shardBytes += p.PrefetchedShardBytes
			}
			if asyncUnloads == 0 {
				t.Fatalf("%s: write-back never went async", name)
			}
			if shardBytes == 0 {
				t.Fatalf("%s: no shard bytes were prefetched", name)
			}
		}
	}
}

// TestAsyncWritebackChargesMemoryBudget: evicted state stays charged
// to MemoryBudget until its background write lands, and everything is
// released by the end of the iteration — a leak would poison the next
// iteration's budget.
func TestAsyncWritebackChargesMemoryBudget(t *testing.T) {
	store := testStore(t, 120, 5)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 6, OnDisk: true, ScratchDir: t.TempDir(),
		PrefetchDepth: 2, AsyncWriteback: true, ShardPrefetch: 2,
		MemoryBudget: 1 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.AsyncUnloads == 0 {
		t.Fatal("no unloads went async")
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes still reserved after iteration", used)
	}
	if eng.budget.Peak() == 0 {
		t.Fatal("budget never charged")
	}
}

// TestEngineSlotsPassedToSimulator guards against the prediction and
// the execution disagreeing on the memory model: an engine with S=3
// must still satisfy its internal measured==predicted assertion (the
// Iterate call errors out otherwise) and report fewer or equal ops
// than the two-slot simulation of the same schedule would.
func TestEngineSlotsPassedToSimulator(t *testing.T) {
	store := testStore(t, 150, 8)
	eng, err := New(store, Options{K: 4, NumPartitions: 6, Slots: 3, Heuristic: pigraph.DegreeLowHigh(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Loads != st.PredictedLoads || st.Unloads != st.PredictedUnloads {
		t.Fatalf("measured %d/%d, predicted %d/%d", st.Loads, st.Unloads, st.PredictedLoads, st.PredictedUnloads)
	}
}
