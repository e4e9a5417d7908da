package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/exact"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/netstore"
	"knnpc/internal/partition"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
)

func testStore(t *testing.T, users int, seed int64) *profile.Store {
	t.Helper()
	vecs, _, err := dataset.RatingsProfiles(users, 600, 18, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	return profile.NewStoreFromVectors(vecs)
}

// referenceIterate is the straightforward in-memory statement of one
// paper iteration with a symmetric similarity. u's forward candidates
// are its out-neighbors and out-neighbors' out-neighbors; u's
// candidates are its forward candidates plus every v that has u among
// its own forward candidates, since sim(u, v) = sim(v, u) serves both.
// The new neighbor list is the top-K by similarity, ties to smaller
// ids.
func referenceIterate(t *testing.T, g *graph.KNN, store *profile.Store, sim profile.Similarity, k int) *graph.KNN {
	t.Helper()
	n := g.NumNodes()
	next, err := graph.NewKNN(n, k)
	if err != nil {
		t.Fatal(err)
	}
	forward := func(u uint32) map[uint32]bool {
		f := make(map[uint32]bool)
		for _, v := range g.Neighbors(u) {
			f[v] = true
			for _, d := range g.Neighbors(v) {
				f[d] = true
			}
		}
		return f
	}
	fwd := make([]map[uint32]bool, n)
	for u := range fwd {
		fwd[u] = forward(uint32(u))
	}
	for u := 0; u < n; u++ {
		cands := make(map[uint32]bool)
		for v := range fwd[u] {
			cands[v] = true
		}
		for v := range fwd {
			if fwd[v][uint32(u)] {
				cands[uint32(v)] = true
			}
		}
		delete(cands, uint32(u))
		sorted := make([]uint32, 0, len(cands))
		for d := range cands {
			sorted = append(sorted, d)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		tk, err := knn.NewTopK(k)
		if err != nil {
			t.Fatal(err)
		}
		pu := store.Get(uint32(u))
		for _, d := range sorted {
			tk.Push(d, sim.Score(pu, store.Get(d)))
		}
		if err := next.Set(uint32(u), tk.IDs()); err != nil {
			t.Fatal(err)
		}
	}
	return next
}

// TestNewValidation: New refuses a missing store and options that
// break a rule (TestOptionsValidate holds the rules).
func TestNewValidation(t *testing.T) {
	store := testStore(t, 10, 1)
	if _, err := New(nil, Options{K: 3}); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := New(store, Options{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
}

func TestEngineMatchesReferenceIteration(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"in-memory greedy", Options{K: 5, NumPartitions: 4}},
		{"in-memory hash", Options{K: 5, NumPartitions: 4, Partitioner: partition.Hash{}}},
		{"on-disk", Options{K: 5, NumPartitions: 4, OnDisk: true}},
		{"on-disk range", Options{K: 5, NumPartitions: 8, OnDisk: true, Partitioner: partition.Range{}}},
		{"on-disk hash", Options{K: 5, NumPartitions: 8, OnDisk: true, Partitioner: partition.Hash{}}},
		{"on-disk sequential heuristic", Options{K: 5, NumPartitions: 5, OnDisk: true, Heuristic: pigraph.Sequential{}}},
		{"parallel scoring", Options{K: 5, NumPartitions: 4, Workers: 4}},
		{"jaccard", Options{K: 5, NumPartitions: 3, Similarity: profile.Jaccard{}}},
		{"low-high heuristic", Options{K: 4, NumPartitions: 6, Heuristic: pigraph.DegreeLowHigh()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := testStore(t, 90, 5)
			tc.opts.Seed = 42
			if tc.opts.OnDisk {
				tc.opts.ScratchDir = t.TempDir()
			}
			eng, err := New(store.Clone(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			sim := tc.opts.Similarity
			if sim == nil {
				sim = profile.Cosine{}
			}
			want := eng.Graph() // G(0)
			for iter := 0; iter < 3; iter++ {
				want = referenceIterate(t, want, store, sim, tc.opts.K)
				st, err := eng.Iterate(context.Background())
				if err != nil {
					t.Fatalf("iteration %d: %v", iter, err)
				}
				got := eng.Graph()
				if d := got.DiffEdges(want); d != 0 {
					t.Fatalf("iteration %d: engine differs from reference by %d edges (stats: %v)", iter, d, st)
				}
			}
		})
	}
}

func TestEngineMeasuredOpsEqualPrediction(t *testing.T) {
	store := testStore(t, 120, 9)
	eng, err := New(store, Options{K: 4, NumPartitions: 8, OnDisk: true, ScratchDir: t.TempDir(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Iterate itself asserts equality and fails otherwise; double-check
	// the stats are coherent and non-trivial.
	if st.Loads == 0 || st.Loads != st.PredictedLoads || st.Unloads != st.PredictedUnloads {
		t.Errorf("ops mismatch: %+v", st)
	}
	if st.IO.BytesRead == 0 || st.IO.BytesWritten == 0 {
		t.Errorf("on-disk engine should do real I/O: %+v", st.IO)
	}
	if st.TuplesScored == 0 || st.TuplesAdded < st.TuplesScored {
		t.Errorf("tuple accounting wrong: added=%d scored=%d", st.TuplesAdded, st.TuplesScored)
	}
}

// TestEngineOpsGrowWithPartitions is the memory trade the partition
// count m buys: at the same two slots, more (smaller) partitions mean
// less resident state and more load/unload operations. Every phase
// of the iteration is timed.
func TestEngineOpsGrowWithPartitions(t *testing.T) {
	var ops []int64
	for _, m := range []int{2, 4} {
		stats, _ := runEngine(t, Options{K: 10, NumPartitions: m, OnDisk: true, Seed: 1}, 150, 2)
		last := stats[len(stats)-1]
		if ph := last.Phases; ph.Partition <= 0 || ph.Tuples <= 0 || ph.Score <= 0 {
			t.Errorf("m=%d: phase times not measured: %+v", m, ph)
		}
		ops = append(ops, last.Ops())
	}
	if ops[0] != 4 {
		t.Errorf("m=2 at two slots: %d ops, want 2m = 4", ops[0])
	}
	if ops[1] <= ops[0] {
		t.Errorf("m=4 should need more ops than m=2: %d vs %d", ops[1], ops[0])
	}
}

func TestEngineConvergesAndRecallImproves(t *testing.T) {
	store := testStore(t, 150, 13)
	k := 6
	truth, err := exact.Compute(store, exact.Options{K: k, Sim: profile.Cosine{}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(store, Options{K: k, NumPartitions: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	first := knn.Recall(eng.Graph(), truth)
	var prevChanges = 1 << 30
	for i := 0; i < 8; i++ {
		st, err := eng.Iterate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.EdgeChanges == 0 {
			break
		}
		prevChanges = st.EdgeChanges
	}
	_ = prevChanges
	final := knn.Recall(eng.Graph(), truth)
	if final <= first {
		t.Errorf("recall did not improve: %.3f -> %.3f", first, final)
	}
	if final < 0.5 {
		t.Errorf("final recall %.3f suspiciously low for clustered data", final)
	}
}

func TestEngineRunStopsOnConvergence(t *testing.T) {
	store := testStore(t, 60, 21)
	eng, err := New(store, Options{K: 4, NumPartitions: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	all, err := eng.Run(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 50 {
		t.Skip("did not converge within 50 iterations (acceptable, just unusual)")
	}
	last := all[len(all)-1]
	if last.EdgeChanges != 0 {
		t.Errorf("last iteration should have zero changes, got %d", last.EdgeChanges)
	}
	for _, st := range all[:len(all)-1] {
		if st.EdgeChanges == 0 {
			t.Error("converged before the last iteration but Run continued")
		}
	}
}

func TestEngineLazyProfileUpdates(t *testing.T) {
	store := testStore(t, 40, 31)
	eng, err := New(store, Options{K: 3, NumPartitions: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	before, err := eng.Profile(7)
	if err != nil {
		t.Fatal(err)
	}
	eng.EnqueueUpdate(profile.Update{User: 7, Kind: profile.SetItem, Item: 9999, Weight: 5})
	// Not yet applied (lazy).
	mid, err := eng.Profile(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mid.Weight(9999); ok {
		t.Fatal("update visible before the iteration boundary")
	}
	st, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesApplied != 1 {
		t.Errorf("UpdatesApplied = %d, want 1", st.UpdatesApplied)
	}
	after, err := eng.Profile(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := after.Weight(9999); !ok {
		t.Error("update should be applied after the iteration")
	}
	if before.Equal(after) {
		t.Error("profile should have changed")
	}
}

// TestPhase5DropsUpdatesForUnknownUsers: an update for a user P(t)
// does not hold reaches phase 5 unchecked (EnqueueUpdate, a store
// client's PUSHUPD). Phase 5 must drop and count it and commit the
// rest: the epoch advances and the valid updates on either side of it
// apply, whichever store holds P(t) and whichever queue carried them.
func TestPhase5DropsUpdatesForUnknownUsers(t *testing.T) {
	const users = 40
	updates := []profile.Update{
		{User: 1, Kind: profile.SetItem, Item: 9001, Weight: 3},
		{User: 1000, Kind: profile.SetItem, Item: 9001, Weight: 4},
		{User: 2, Kind: profile.SetItem, Item: 9002, Weight: 5},
	}
	rows := []struct {
		name string
		opts Options
		push func(t *testing.T, eng *Engine)
	}{
		{"in-process", Options{}, nil},
		{"profiles-on-disk", Options{ProfilesOnDisk: true, ScratchDir: t.TempDir()}, nil},
		{"netstore-push", Options{NetStoreShards: 2}, func(t *testing.T, eng *Engine) {
			client, err := netstore.Dial(eng.StoreAddrs(), 3)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if err := client.PushUpdates(updates); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := row.opts
			opts.K, opts.NumPartitions, opts.Seed = 3, 3, 8
			eng, err := New(testStore(t, users, 31), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if row.push != nil {
				row.push(t, eng)
			} else {
				for _, u := range updates {
					eng.EnqueueUpdate(u)
				}
			}

			st, err := eng.Iterate(context.Background())
			if err != nil {
				t.Fatalf("Iterate: %v", err)
			}
			if eng.Epoch() != 1 {
				t.Errorf("epoch %d after one Iterate, want 1", eng.Epoch())
			}
			if st.UpdatesApplied != 2 || st.UpdatesDropped != 1 {
				t.Errorf("applied %d, dropped %d; want 2 and 1", st.UpdatesApplied, st.UpdatesDropped)
			}
			for _, want := range []struct {
				user, item uint32
				weight     float32
			}{{1, 9001, 3}, {2, 9002, 5}} {
				vec, err := eng.Profile(want.user)
				if err != nil {
					t.Fatal(err)
				}
				if w, ok := vec.Weight(want.item); !ok || w != want.weight {
					t.Errorf("user %d item %d = %v,%v; want %v,true", want.user, want.item, w, ok, want.weight)
				}
			}
		})
	}
}

func TestEngineContextCancellation(t *testing.T) {
	store := testStore(t, 80, 41)
	eng, err := New(store, Options{K: 4, NumPartitions: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Iterate(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context should abort: %v", err)
	}
}

func TestEngineMemoryBudget(t *testing.T) {
	store := testStore(t, 60, 51)
	// A 1-byte budget cannot hold any partition state.
	eng, err := New(store, Options{K: 3, NumPartitions: 4, MemoryBudget: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); !errors.Is(err, disk.ErrBudgetExceeded) {
		t.Errorf("tiny budget should fail with ErrBudgetExceeded, got %v", err)
	}

	// A generous budget passes.
	eng2, err := New(store.Clone(), Options{K: 3, NumPartitions: 4, MemoryBudget: 64 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, err := eng2.Iterate(context.Background()); err != nil {
		t.Errorf("generous budget should pass: %v", err)
	}
}

func TestEngineSetGraphValidation(t *testing.T) {
	store := testStore(t, 30, 61)
	eng, err := New(store, Options{K: 3, NumPartitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	wrongSize, _ := graph.NewKNN(10, 3)
	if err := eng.SetGraph(wrongSize); err == nil {
		t.Error("node-count mismatch should fail")
	}
	bigK, _ := graph.NewKNN(30, 9)
	if err := eng.SetGraph(bigK); err == nil {
		t.Error("K overflow should fail")
	}
	ok, _ := graph.NewKNN(30, 3)
	ok.Set(0, []uint32{1, 2})
	if err := eng.SetGraph(ok); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	if got := eng.Graph().Neighbors(0); len(got) != 2 {
		t.Error("SetGraph should install the provided graph")
	}
}

func TestEngineClosedRefusesWork(t *testing.T) {
	store := testStore(t, 20, 71)
	eng, err := New(store, Options{K: 2, NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Iterate(context.Background()); err == nil {
		t.Error("closed engine should refuse to iterate")
	}
	if err := eng.Close(); err != nil {
		t.Errorf("double close should be a no-op: %v", err)
	}
}

func TestDecodePartStateErrors(t *testing.T) {
	st := newTestPartState(t, 1, 3, map[uint32]profile.Vector{4: profile.FromItems([]uint32{1, 2})})
	blob := st.encode()
	if _, err := decodePartState(blob[:4], 3, nil); err == nil {
		t.Error("short header should fail")
	}
	if _, err := decodePartState(blob[:len(blob)-3], 3, nil); err == nil {
		t.Error("truncated state should fail")
	}
	if _, err := decodePartState(append(blob, 0xFF), 3, nil); err == nil {
		t.Error("trailing garbage should fail")
	}
	got, err := decodePartState(blob, 3, nil)
	if err != nil {
		t.Fatalf("valid state failed to decode: %v", err)
	}
	if got.id != 1 || len(got.members) != 1 || !got.profiles.At(0).Equal(st.profiles.At(0)) {
		t.Error("round trip lost data")
	}
}

// TestEngineCreatesScratchFilesOnce: an on-disk engine rewrites its
// spill and state files in place, so only its first iteration creates
// files; later ones reopen them. Closing the engine removes them all.
func TestEngineCreatesScratchFilesOnce(t *testing.T) {
	dir := t.TempDir()
	eng, err := New(testStore(t, 200, 5), Options{K: 6, NumPartitions: 8, OnDisk: true, ScratchDir: dir, TupleBatch: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for it := 0; it < 3; it++ {
		st, err := eng.Iterate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if first := it == 0; first != (st.IO.Creates > 0) {
			t.Errorf("iteration %d created %d files (%d shards spilled, %d state writes)", it, st.IO.Creates, st.ShardReads, st.StateWrites)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) > 0 {
		t.Errorf("closed engine left %v in its scratch parent (%v)", left, err)
	}
}

// TestEnginesShareScratchDir: two on-disk engines run at once over one
// ScratchDir each compute the graphs they compute in directories of
// their own, and once both close the directory holds exactly what it
// held before. Before each engine made a private directory inside it,
// both named their files shard-I-J.tuples and state-N.bin at its root
// and read each other's spills.
func TestEnginesShareScratchDir(t *testing.T) {
	const iters = 3
	run := func(dir string, seed int64) (*graph.KNN, error) {
		eng, err := New(testStore(t, 180, seed), Options{K: 5, NumPartitions: 6, OnDisk: true, ScratchDir: dir, TupleBatch: 4, Seed: seed})
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		for i := 0; i < iters; i++ {
			if _, err := eng.Iterate(context.Background()); err != nil {
				return nil, err
			}
		}
		return eng.Graph(), nil
	}
	seeds := []int64{7, 8}
	want := make([]*graph.KNN, len(seeds))
	for i, seed := range seeds {
		var err error
		if want[i], err = run(t.TempDir(), seed); err != nil {
			t.Fatal(err)
		}
	}

	shared := t.TempDir()
	if err := os.WriteFile(filepath.Join(shared, "shard-0-0.tuples"), []byte("the caller's"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := make([]*graph.KNN, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(shared, seed)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("engine %d over the shared directory: %v", i, errs[i])
		}
		if d := got[i].DiffEdges(want[i]); d != 0 {
			t.Errorf("engine %d over the shared directory differs from its own-directory run by %d edges", i, d)
		}
	}
	left, err := os.ReadDir(shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != "shard-0-0.tuples" {
		t.Errorf("shared directory holds %v after both engines closed, want only the caller's file", left)
	}
	if b, _ := os.ReadFile(filepath.Join(shared, "shard-0-0.tuples")); string(b) != "the caller's" {
		t.Errorf("the caller's file was overwritten: %q", b)
	}
}
