package knnpc

import (
	"context"
	"testing"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
)

// These integration tests drive the whole stack end to end through the
// public API and through core directly, checking cross-cutting
// invariants that no single package test can see.

// TestOnDiskMatchesInMemoryAcrossIterations runs two engines with
// identical configuration except for the storage backend, interleaves
// profile updates, and requires bit-identical KNN graphs after every
// iteration: the disk path must be a pure storage substitution.
func TestOnDiskMatchesInMemoryAcrossIterations(t *testing.T) {
	vecs, _, err := dataset.RatingsProfiles(130, 800, 20, 5, 424242)
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func(onDisk bool) *core.Engine {
		store := profile.NewStoreFromVectors(append([]profile.Vector(nil), vecs...))
		opts := core.Options{K: 5, NumPartitions: 5, Seed: 9, OnDisk: onDisk}
		if onDisk {
			opts.ScratchDir = t.TempDir()
		}
		eng, err := core.New(store, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	mem := newEngine(false)
	defer mem.Close()
	dsk := newEngine(true)
	defer dsk.Close()

	// Third variant: everything on disk, including canonical P(t).
	fullStore := profile.NewStoreFromVectors(append([]profile.Vector(nil), vecs...))
	full, err := core.New(fullStore, core.Options{
		K: 5, NumPartitions: 5, Seed: 9,
		OnDisk: true, ProfilesOnDisk: true, ScratchDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	ctx := context.Background()
	for iter := 0; iter < 4; iter++ {
		// Same updates into all queues mid-iteration.
		upd := profile.Update{User: uint32(iter * 7 % 130), Kind: profile.SetItem, Item: uint32(9000 + iter), Weight: 3}
		mem.EnqueueUpdate(upd)
		dsk.EnqueueUpdate(upd)
		full.EnqueueUpdate(upd)

		ms, err := mem.Iterate(ctx)
		if err != nil {
			t.Fatalf("mem iter %d: %v", iter, err)
		}
		ds, err := dsk.Iterate(ctx)
		if err != nil {
			t.Fatalf("disk iter %d: %v", iter, err)
		}
		fs, err := full.Iterate(ctx)
		if err != nil {
			t.Fatalf("full-disk iter %d: %v", iter, err)
		}
		if diff := mem.Graph().DiffEdges(dsk.Graph()); diff != 0 {
			t.Fatalf("iteration %d: graphs differ by %d edges", iter, diff)
		}
		if diff := mem.Graph().DiffEdges(full.Graph()); diff != 0 {
			t.Fatalf("iteration %d: profiles-on-disk graph differs by %d edges", iter, diff)
		}
		if ms.TuplesScored != ds.TuplesScored || ms.TuplesScored != fs.TuplesScored {
			t.Fatalf("iteration %d: scored %d vs %d vs %d tuples", iter, ms.TuplesScored, ds.TuplesScored, fs.TuplesScored)
		}
		if ms.Loads != ds.Loads || ms.Unloads != ds.Unloads {
			t.Fatalf("iteration %d: op counts differ (%d/%d vs %d/%d)",
				iter, ms.Loads, ms.Unloads, ds.Loads, ds.Unloads)
		}
		if fs.UpdatesApplied != ms.UpdatesApplied {
			t.Fatalf("iteration %d: updates applied differ (%d vs %d)", iter, fs.UpdatesApplied, ms.UpdatesApplied)
		}
	}
}

// TestHeuristicsAgreeOnResults: the traversal heuristic changes the
// I/O order, never the output — all heuristics must produce identical
// G(t+1).
func TestHeuristicsAgreeOnResults(t *testing.T) {
	profiles := testProfiles(t, 100)
	var first []([]uint32)
	for _, heur := range pigraph.AllHeuristics() {
		h := heur.Name()
		sys, err := New(profiles, Config{K: 4, Partitions: 6, Heuristic: h, Seed: 31})
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := sys.Iterate(context.Background()); err != nil {
				sys.Close()
				t.Fatalf("%s: %v", h, err)
			}
		}
		lists := sys.NeighborLists()
		sys.Close()
		if first == nil {
			first = lists
			continue
		}
		for u := range lists {
			if len(lists[u]) != len(first[u]) {
				t.Fatalf("%s: user %d neighbor count differs", h, u)
			}
			for i := range lists[u] {
				if lists[u][i] != first[u][i] {
					t.Fatalf("%s: user %d neighbors differ: %v vs %v", h, u, lists[u], first[u])
				}
			}
		}
	}
}

// TestPartitionCountInvariance: m changes the memory/I/O trade-off,
// not the computed graph.
func TestPartitionCountInvariance(t *testing.T) {
	profiles := testProfiles(t, 90)
	var first []([]uint32)
	for _, m := range []int{2, 3, 8, 15} {
		sys, err := New(profiles, Config{K: 4, Partitions: m, Seed: 77})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := sys.Iterate(context.Background()); err != nil {
				sys.Close()
				t.Fatalf("m=%d: %v", m, err)
			}
		}
		lists := sys.NeighborLists()
		sys.Close()
		if first == nil {
			first = lists
			continue
		}
		for u := range lists {
			for i := range lists[u] {
				if lists[u][i] != first[u][i] {
					t.Fatalf("m=%d: user %d neighbors differ", m, u)
				}
			}
		}
	}
}

// TestExplorationPublicAPI exercises the Exploration knob through the
// façade.
func TestExplorationPublicAPI(t *testing.T) {
	profiles := testProfiles(t, 60)
	sys, err := New(profiles, Config{K: 3, Partitions: 4, Exploration: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rep, err := sys.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TuplesScored == 0 {
		t.Error("exploration run scored nothing")
	}
}

// TestCanceledRunReturnsPartialReports: Run must surface completed
// iterations alongside the cancellation error.
func TestCanceledRunReturnsPartialReports(t *testing.T) {
	profiles := testProfiles(t, 60)
	sys, err := New(profiles, Config{K: 3, Partitions: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := sys.Iterate(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	reports, err := sys.Run(ctx, 5)
	if err == nil {
		t.Fatal("canceled Run should fail")
	}
	if len(reports) != 0 {
		t.Fatalf("no iterations should complete after cancel, got %d", len(reports))
	}
}
