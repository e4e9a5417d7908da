package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knnpc/internal/disk"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/partition"
	"knnpc/internal/profile"
	"knnpc/internal/tuples"
)

// TestShardedWorkersMatchSerialEngine is the end-to-end invariant of
// multi-worker phase 4: for W ∈ {2, 4}, on both the in-memory and the
// on-disk store, the sharded engine must reproduce the single-cursor
// engine's graph trajectory bit for bit, its per-worker op counts must
// sum to the deterministic (Slots, W) totals (the engine additionally
// asserts measured == simulated internally every iteration), every tape
// load must be a medium read, an attach to another worker's instance
// (none attach at W=1) or a partition's first load built from P(t) —
// as many as the serial engine builds — and the scored tuple count must
// be identical. Run under -race in CI — the partition store's shared
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
				// The partitions some tape loads do not depend on how the
				// tape is split, so both engines build as many at acquire.
				if p.Loads-p.MediumReads-p.Attaches != s.Loads-s.MediumReads || s.Attaches != 0 {
					t.Errorf("%s iter %d: sharded %d reads + %d attaches for %d loads, serial %d + %d for %d",
						name, i, p.MediumReads, p.Attaches, p.Loads, s.MediumReads, s.Attaches, s.Loads)
				}
				checkInProcessIO(t, fmt.Sprintf("%s iter %d", name, i), p)
				checkInProcessIO(t, fmt.Sprintf("serial iter %d", i), s)
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
// long emulated-HDD multi-worker phase 4 cancelled mid-run — once by a
// deadline, once right after a partition emitted its rows — must return
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

	// Cancel iteration 1 again, this time at the first partition whose
	// final release emits its rows of G(t+1): the run dies with part of
	// the next graph assembled and nothing written back for it.
	ctx, cancel = context.WithCancel(context.Background())
	spy := &armSpy{partStore: eng.newPartStore(), onEmit: cancel}
	_, err = eng.compute(ctx, spy, &IterationStats{})
	cancel()
	if cerr := spy.cleanup(); cerr != nil {
		t.Fatal(cerr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled at its first emit returned %v, want ctx.Err()", err)
	}
	if spy.emitted.Load() == 0 {
		t.Fatal("no partition emitted before the cancellation")
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d staged budget bytes leaked by the run cancelled after an emit", used)
	}

	// Retrying the same iteration must reproduce the uncancelled
	// engine's graph exactly: the aborts wrote nothing partial that the
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

// armSpy wraps a partition store to observe what phase 4 arms it with:
// the planned loads, and every emitted partition — optionally calling
// onEmit at each emission, before the rows are written.
type armSpy struct {
	partStore
	loads   []int
	emitted atomic.Int64
	onEmit  func()
}

func (s *armSpy) arm(loads []int, emit func(st *partState) error) {
	s.loads = loads
	s.partStore.arm(loads, func(st *partState) error {
		s.emitted.Add(1)
		if s.onEmit != nil {
			s.onEmit()
		}
		return emit(st)
	})
}

// TestPartStoreAllocatesOneStatePerSlot: at Slots=2, ExecWorkers=1 and
// PrefetchDepth=0 at most two partition states are ever held at once,
// so in every iteration the in-process store allocates exactly two, on
// either medium, however many loads and builds the tape makes: every
// other decode and build fills a released state. BudgetPeak is the
// iteration's own high-water mark of the memory budget — positive,
// within MemoryBudget, and the same in a second run at the same seed.
func TestPartStoreAllocatesOneStatePerSlot(t *testing.T) {
	const users, iters = 240, 3
	for _, onDisk := range []bool{false, true} {
		opts := Options{K: 5, NumPartitions: 8, Slots: 2, ExecWorkers: 1, MemoryBudget: 1 << 20, OnDisk: onDisk, Seed: 23}
		first, _ := runEngine(t, opts, users, iters)
		second, _ := runEngine(t, opts, users, iters)
		for i, st := range first {
			name := fmt.Sprintf("ondisk=%v iter %d", onDisk, i)
			if st.StateAllocs != 2 {
				t.Errorf("%s: %d states allocated for %d loads and %d builds, want 2", name, st.StateAllocs, st.Loads, st.StateBuilds)
			}
			if st.BudgetPeak <= 0 || st.BudgetPeak > opts.MemoryBudget {
				t.Errorf("%s: budget peak %d, want in (0, %d]", name, st.BudgetPeak, opts.MemoryBudget)
			}
			if st.BudgetPeak != second[i].BudgetPeak {
				t.Errorf("%s: budget peak %d, %d in a second run at the same seed", name, st.BudgetPeak, second[i].BudgetPeak)
			}
		}
	}
}

// checkStateAllocs asserts the bound on one iteration's state
// allocations: a state is allocated only when every earlier one is
// held, and a tape worker holds at most its Slots resident partitions,
// its PrefetchDepth fetches in flight and its write-backs in flight.
// Phase 1's builds over a network store hold at most BuildWorkers more.
func checkStateAllocs(t *testing.T, name string, opts Options, st *IterationStats) {
	t.Helper()
	exec := opts.execOptions()
	bound := int64(st.ExecWorkers*(exec.Slots+exec.PrefetchDepth+exec.WritebackDepth) + st.BuildWorkers)
	if st.StateAllocs <= 0 || st.StateAllocs > bound {
		t.Errorf("%s: %d states allocated for %d loads, want 1..%d", name, st.StateAllocs, st.Loads, bound)
	}
}

// checkInProcessIO asserts the in-process store's I/O account of one
// iteration: every partition is built once and never read at collect,
// and every state written is read back exactly once.
func checkInProcessIO(t *testing.T, name string, st *IterationStats) {
	t.Helper()
	if st.StateBuilds != int64(st.NumPartitions) || st.CollectReads != 0 || st.MediumReads != st.StateWrites {
		t.Errorf("%s: %d builds for %d partitions, %d collect reads, %d medium reads for %d state writes",
			name, st.StateBuilds, st.NumPartitions, st.CollectReads, st.MediumReads, st.StateWrites)
	}
}

// TestEmitMatrixIdenticalGraph: the graph trajectory is identical at
// every Slots × ExecWorkers × {memory, file} × {async write-back,
// serial} combination, and in every iteration the in-process store
// builds each partition once and reads back each state it writes
// exactly once (checkInProcessIO).
// Under -race this is the test of emission on write-back goroutines:
// with async write-back, final releases emit rows concurrently.
func TestEmitMatrixIdenticalGraph(t *testing.T) {
	const users, iters = 200, 2
	base := Options{K: 5, NumPartitions: 6, TupleBatch: 64, Seed: 17}
	refStats, refGraph := runEngine(t, base, users, iters)
	for _, slots := range []int{2, 4} {
		for _, workers := range []int{1, 2, 3} {
			for _, onDisk := range []bool{false, true} {
				for _, async := range []bool{false, true} {
					opts := base
					opts.Slots, opts.ExecWorkers, opts.OnDisk = slots, workers, onDisk
					if async {
						opts.AsyncWriteback, opts.PrefetchDepth = true, 1
					}
					name := fmt.Sprintf("slots=%d workers=%d ondisk=%v async=%v", slots, workers, onDisk, async)
					stats, g := runEngine(t, opts, users, iters)
					if refGraph.DiffEdges(g) != 0 {
						t.Fatalf("%s: graph differs from the serial in-memory engine", name)
					}
					for i, st := range stats {
						if st.TuplesScored != refStats[i].TuplesScored {
							t.Errorf("%s iter %d: scored %d tuples, serial %d", name, i, st.TuplesScored, refStats[i].TuplesScored)
						}
						checkInProcessIO(t, fmt.Sprintf("%s iter %d", name, i), st)
						checkStateAllocs(t, fmt.Sprintf("%s iter %d", name, i), opts, st)
					}
				}
			}
		}
	}
}

// TestEmitReadsBackEveryWrite pins the in-process store's I/O account
// against the plan it was armed with: every partition the tapes load is
// built at its first load and read off the medium once per write-back
// of it, and collect builds exactly the partitions no tape loaded.
func TestEmitReadsBackEveryWrite(t *testing.T) {
	for _, onDisk := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			opts := Options{K: 5, NumPartitions: 8, OnDisk: onDisk, ExecWorkers: workers, Slots: 2, Seed: 29}
			if onDisk {
				opts.ScratchDir = t.TempDir()
			}
			eng, err := New(testStore(t, 250, 42), opts)
			if err != nil {
				t.Fatal(err)
			}
			spy := &armSpy{partStore: eng.newPartStore()}
			st := &IterationStats{NumPartitions: opts.NumPartitions}
			_, err = eng.compute(context.Background(), spy, st)
			if cerr := spy.cleanup(); err == nil {
				err = cerr
			}
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			loaded := 0
			for _, n := range spy.loads {
				if n > 0 {
					loaded++
				}
			}
			name := fmt.Sprintf("ondisk=%v workers=%d", onDisk, workers)
			if st.MediumReads+st.Attaches+int64(loaded) != st.Loads {
				t.Errorf("%s: %d medium reads + %d attaches for %d loads with %d of %d partitions loaded",
					name, st.MediumReads, st.Attaches, st.Loads, loaded, opts.NumPartitions)
			}
			checkInProcessIO(t, name, st)
			if spy.emitted.Load() != int64(opts.NumPartitions) {
				t.Errorf("%s: %d partitions emitted, want all %d", name, spy.emitted.Load(), opts.NumPartitions)
			}
			if st.StateWrites == 0 {
				t.Errorf("%s: two slots over eight partitions wrote nothing back", name)
			}
		}
	}
}

// openSpy records what the wrapped store's open did to the engine's I/O
// counters and spindle.
type openSpy struct {
	partStore
	stats *disk.IOStats
	delta disk.Snapshot
}

func (s *openSpy) open(ctx context.Context, parts []*partition.Data, build stateBuilder, workers int) error {
	before := s.stats.Snapshot()
	err := s.partStore.open(ctx, parts, build, workers)
	s.delta = s.stats.Snapshot().Sub(before)
	return err
}

// graphDigest hashes every neighbor list in id order, as the benchmark's
// graph_digest does.
func graphDigest(g *graph.KNN) string {
	h := sha256.New()
	var buf [4]byte
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Neighbors(uint32(u))
		binary.LittleEndian.PutUint32(buf[:], uint32(len(nbrs)))
		h.Write(buf[:])
		for _, v := range nbrs {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPartStoreBuildsOnEmulatedHDD runs the in-process store on files
// over an emulated HDD at Slots ∈ {2, 4} × ExecWorkers ∈ {1, 2}: in
// every iteration phase 1 makes no device access — no seek, no byte, no
// modeled time — each partition is built exactly once, every state
// written is read back exactly once, collect reads nothing, and the
// tape's loads split into medium reads, attaches and one build per
// loaded partition. The graph equals the network-store backend's and
// a pinned digest, recorded when phase 4 began crediting each scored
// pair to both endpoints.
func TestPartStoreBuildsOnEmulatedHDD(t *testing.T) {
	const users, iters, digest = 240, 3, "5e8472ebe08d850c"
	base := Options{K: 5, NumPartitions: 6, TupleBatch: 64, Seed: 33}
	net := base
	net.NetStoreShards = 2
	_, netGraph := runEngine(t, net, users, iters)
	if got := graphDigest(netGraph); got != digest {
		t.Fatalf("network-store graph digest %s, want %s", got, digest)
	}
	for _, slots := range []int{2, 4} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("slots=%d workers=%d", slots, workers)
			opts := base
			opts.OnDisk, opts.EmulateDisk, opts.ScratchDir = true, &disk.HDD, t.TempDir()
			opts.Slots, opts.ExecWorkers, opts.PrefetchDepth = slots, workers, 1
			eng, err := New(testStore(t, users, 42), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < iters; i++ {
				arm := &armSpy{partStore: eng.newPartStore()}
				spy := &openSpy{partStore: arm, stats: &eng.iostats}
				st := &IterationStats{NumPartitions: opts.NumPartitions}
				_, err := eng.compute(context.Background(), spy, st)
				if cerr := spy.cleanup(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				d := spy.delta
				if d.Seeks+d.ReadOps+d.WriteOps+d.BytesRead+d.BytesWritten+d.Loads+d.Unloads != 0 {
					t.Errorf("%s iter %d: phase 1 touched the medium: %+v", name, i, d)
				}
				for _, dev := range d.Devices {
					if dev.Modeled != 0 {
						t.Errorf("%s iter %d: phase 1 charged %v to %s", name, i, dev.Modeled, dev.Name)
					}
				}
				loaded := 0
				for _, n := range arm.loads {
					if n > 0 {
						loaded++
					}
				}
				if st.MediumReads+st.Attaches+int64(loaded) != st.Loads {
					t.Errorf("%s iter %d: %d medium reads + %d attaches + %d builds at acquire for %d loads",
						name, i, st.MediumReads, st.Attaches, loaded, st.Loads)
				}
				checkInProcessIO(t, fmt.Sprintf("%s iter %d", name, i), st)

				// The committed iteration accounts as its probe did; with two
				// workers, which loads attach depends on timing.
				it, err := eng.Iterate(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if it.Loads != st.Loads || it.StateBuilds != st.StateBuilds ||
					workers == 1 && (it.MediumReads != st.MediumReads || it.StateWrites != st.StateWrites) {
					t.Errorf("%s iter %d: Iterate accounted %d loads, %d reads, %d writes, %d builds; its probe %d, %d, %d, %d",
						name, i, it.Loads, it.MediumReads, it.StateWrites, it.StateBuilds, st.Loads, st.MediumReads, st.StateWrites, st.StateBuilds)
				}
				checkInProcessIO(t, fmt.Sprintf("%s iter %d (committed)", name, i), it)
			}
			if eng.Graph().DiffEdges(netGraph) != 0 {
				t.Errorf("%s: graph differs from the network-store backend's", name)
			}
			if got := graphDigest(eng.Graph()); got != digest {
				t.Errorf("%s: graph digest %s, want %s", name, got, digest)
			}
			eng.Close()
		}
	}
}

// TestWorkerResolvesShardEnds: a tape worker resolves a shard's two
// resident states once per pair step and indexes their arenas by
// ordinal, crediting each pair's score to both endpoints. So a state whose members are not phase 1's is refused when
// it is committed, a shard whose partitions are not both resident is
// an error, and so is an endpoint outside the shard's two partitions.
func TestWorkerResolvesShardEnds(t *testing.T) {
	const k = 3
	store := testStore(t, 9, 4)
	assign, err := partition.NewAssignment([]uint32{0, 0, 0, 1, 1, 1, 2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	state := func(p uint32) *partState {
		st, err := newPartState(&partition.Data{ID: p, Members: assign.Members(p)}, memCanonical{store}, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Each worker gets a run of its own: the first error cancels it.
	worker := func() *phase4Worker {
		table := tuples.NewDiskTable(assign, nil, new(disk.IOStats), 0)
		if err := table.AddBatch([]tuples.Tuple{{S: 0, D: 3}, {S: 4, D: 1}, {S: 2, D: 7}, {S: 2, D: 0}}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return &phase4Worker{
			shared: &phase4Shared{
				assign: assign,
				owner:  newPartOwner(3, nil, nil, disk.NewBudget(0), new(disk.IOStats), k),
				table:  table,
				ctx:    ctx,
				cancel: cancel,
			},
			scorer:   knn.Scorer{Sim: profile.Cosine{}},
			resident: make([]*partState, 3),
		}
	}

	w := worker()
	for p := uint32(0); p < 2; p++ {
		if err := w.commit(p, state(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.pair(1, 0); err != nil {
		t.Fatalf("pair {0,1} with both resident: %v", err)
	}
	if got := w.resident[0].accs[0].IDs(); !slices.Equal(got, []uint32{3}) {
		t.Errorf("user 0's candidates = %v, want [3]", got)
	}
	if got := w.resident[1].accs[1].IDs(); !slices.Equal(got, []uint32{1}) {
		t.Errorf("user 4's candidates = %v, want [1]", got)
	}
	// Each pair is folded into its destination end too.
	if got := w.resident[1].accs[0].IDs(); !slices.Equal(got, []uint32{0}) {
		t.Errorf("user 3's candidates = %v, want [0]", got)
	}
	if got := w.resident[0].accs[1].IDs(); !slices.Equal(got, []uint32{4}) {
		t.Errorf("user 1's candidates = %v, want [4]", got)
	}
	// A self shard has one end, and each endpoint of its pair receives
	// the other exactly once.
	if err := w.pair(0, 0); err != nil {
		t.Fatalf("self shard {0,0}: %v", err)
	}
	if got := w.resident[0].accs[2].IDs(); !slices.Equal(got, []uint32{0}) {
		t.Errorf("user 2's candidates = %v, want [0]", got)
	}
	got := w.resident[0].accs[0].IDs()
	if slices.Sort(got); !slices.Equal(got, []uint32{2, 3}) {
		t.Errorf("user 0's candidates = %v, want [2 3]", got)
	}
	if _, err := w.lookup(7); err == nil || !strings.Contains(err.Error(), "outside the shard") {
		t.Errorf("lookup of user 7 while scoring shard {0,1}: got %v", err)
	}
	if err := w.pair(0, 2); err == nil || !strings.Contains(err.Error(), "not resident") {
		t.Errorf("pair {0,2} with 2 not resident: got %v", err)
	}

	wrong := state(1)
	wrong.members[0] = 8
	if err := worker().commit(1, wrong); err == nil {
		t.Error("a state whose members are not the assignment's was committed")
	}
	if err := worker().commit(1, state(0)); err == nil {
		t.Error("partition 0's state was committed as partition 1")
	}
}
