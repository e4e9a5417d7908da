package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"knnpc/internal/disk"
	"knnpc/internal/partition"
	"knnpc/internal/tuples"
)

// TestParallelBuildMatchesSerialEngine is the end-to-end invariant of
// the parallel build side, the phase-1/2 analogue of the engine's
// phase-4 matrix tests: for BuildWorkers ∈ {1, 2, 4, 8}, with the table
// in memory and spilling to disk, the engine must reproduce the
// serial build's graph trajectory bit for bit, with identical tuple
// tallies, PI-graph sizes and Table 1 load/unload accounting every
// iteration. RandomCandidates is on so the matrix covers all three
// producer streams, including the per-user reseeded exploration
// stream. Run under -race in CI — the concurrent producers over one
// shared table are the point of this test.
func TestParallelBuildMatchesSerialEngine(t *testing.T) {
	const users, iters = 300, 3
	for _, onDisk := range []bool{false, true} {
		base := Options{
			K: 6, NumPartitions: 8, OnDisk: onDisk, TupleBatch: 64,
			RandomCandidates: 2, Seed: 17,
		}
		serialStats, serialGraph := runEngine(t, base, users, iters)

		for _, workers := range []int{1, 2, 4, 8} {
			parallel := base
			parallel.BuildWorkers = workers
			name := fmt.Sprintf("ondisk=%v buildworkers=%d", onDisk, workers)
			parStats, parGraph := runEngine(t, parallel, users, iters)

			if serialGraph.DiffEdges(parGraph) != 0 {
				t.Fatalf("%s: parallel build produced a different KNN graph", name)
			}
			for i := range serialStats {
				s, p := serialStats[i], parStats[i]
				if p.BuildWorkers != workers {
					t.Errorf("%s iter %d: reported %d build workers", name, i, p.BuildWorkers)
				}
				if s.TuplesAdded != p.TuplesAdded || s.TuplesScored != p.TuplesScored {
					t.Errorf("%s iter %d: parallel added=%d scored=%d, serial added=%d scored=%d",
						name, i, p.TuplesAdded, p.TuplesScored, s.TuplesAdded, s.TuplesScored)
				}
				if s.PIEdges != p.PIEdges || s.PartitionObjective != p.PartitionObjective {
					t.Errorf("%s iter %d: PI graph diverged (edges %d vs %d, objective %d vs %d)",
						name, i, p.PIEdges, s.PIEdges, p.PartitionObjective, s.PartitionObjective)
				}
				if s.Loads != p.Loads || s.Unloads != p.Unloads {
					t.Errorf("%s iter %d: parallel %d/%d loads/unloads, serial %d/%d",
						name, i, p.Loads, p.Unloads, s.Loads, s.Unloads)
				}
				if s.EdgeChanges != p.EdgeChanges {
					t.Errorf("%s iter %d: parallel changed %d edges, serial %d", name, i, p.EdgeChanges, s.EdgeChanges)
				}
			}
		}
	}
}

// TestParallelBuildShardContents pins the invariant one level below
// the graph: the hash table a parallel build leaves behind is
// bit-identical to the serial one — same Added tally, same raw
// ShardCounts (the PI-graph weights), same de-duplicated sorted shard
// contents — for every worker count, on both media.
func TestParallelBuildShardContents(t *testing.T) {
	const users, m = 250, 6
	store := testStore(t, users, 33)
	eng, err := New(store, Options{K: 5, NumPartitions: m, RandomCandidates: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	dg := eng.g.Digraph()
	assign, err := eng.opts.Partitioner.Partition(dg, m)
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Build(dg, assign)

	type snapshot struct {
		added  int64
		counts map[tuples.ShardID]int64
		shards map[tuples.ShardID][]tuples.Tuple
	}
	build := func(workers int, disky bool) snapshot {
		var scratch *disk.Scratch // nil: the table never spills
		if disky {
			var err error
			if scratch, err = disk.NewScratch(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		var stats disk.IOStats
		table := tuples.NewDiskTable(assign, scratch, &stats, 32)
		defer table.Close()
		eng.opts.BuildWorkers = workers
		if err := eng.populateTable(context.Background(), dg, parts, table); err != nil {
			t.Fatal(err)
		}
		snap := snapshot{added: table.Added(), counts: table.ShardCounts(), shards: make(map[tuples.ShardID][]tuples.Tuple)}
		for i := uint32(0); i < m; i++ {
			for j := uint32(0); j < m; j++ {
				ts, err := table.Shard(i, j)
				if err != nil {
					t.Fatal(err)
				}
				if ts != nil {
					snap.shards[tuples.ShardID{I: i, J: j}] = ts
				}
			}
		}
		return snap
	}

	for _, disky := range []bool{false, true} {
		want := build(1, disky)
		if want.added == 0 || len(want.shards) == 0 {
			t.Fatalf("disk=%v: serial build produced nothing (added=%d)", disky, want.added)
		}
		for _, workers := range []int{2, 4, 8} {
			got := build(workers, disky)
			if got.added != want.added {
				t.Errorf("disk=%v workers=%d: Added %d, serial %d", disky, workers, got.added, want.added)
			}
			if !reflect.DeepEqual(got.counts, want.counts) {
				t.Errorf("disk=%v workers=%d: ShardCounts diverge from serial build", disky, workers)
			}
			if !reflect.DeepEqual(got.shards, want.shards) {
				t.Errorf("disk=%v workers=%d: de-duplicated shard contents diverge from serial build", disky, workers)
			}
		}
	}
}

// cancelingTable cancels the build's context when the table has
// absorbed `after` batches, then counts every batch that still arrives
// — the instrument for the mid-phase-2 cancellation contract.
type cancelingTable struct {
	*tuples.DiskTable
	cancel  context.CancelFunc
	after   int32
	batches atomic.Int32
	late    atomic.Int32
}

func (c *cancelingTable) AddBatch(ts []tuples.Tuple) error {
	n := c.batches.Add(1)
	if n == c.after {
		c.cancel()
	}
	if n > c.after {
		c.late.Add(1)
	}
	return c.DiskTable.AddBatch(ts)
}

// TestBuildCancelMidPhase2 mirrors the mid-phase-4 cancel test on the
// build side: a context canceled while the phase-2 producers are
// mid-stream must surface ctx.Err() promptly — each producer notices
// at its next batch flush, so the tuples that still land after the
// cancel are bounded by one in-flight batch per producer, not by the
// remaining workload. (Before this, the direct-edge and
// random-candidate loops never checked ctx at all and would grind to
// the end of their streams.)
func TestBuildCancelMidPhase2(t *testing.T) {
	const users = 400
	store := testStore(t, users, 21)
	eng, err := New(store, Options{
		K: 8, NumPartitions: 8, RandomCandidates: 4, BuildWorkers: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	dg := eng.g.Digraph()
	assign, err := eng.opts.Partitioner.Partition(dg, eng.opts.NumPartitions)
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Build(dg, assign)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stats disk.IOStats
	table := &cancelingTable{DiskTable: tuples.NewDiskTable(assign, nil, &stats, 0), cancel: cancel, after: 2}
	defer table.Close()

	err = eng.populateTable(ctx, dg, parts, table)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build returned %v, want ctx.Err()", err)
	}
	// Producers: one per partition plus direct-edge and exploration
	// ranges — each may have at most one batch in flight when the
	// cancel lands, and nothing may start a fresh stream afterwards.
	maxProducers := int32(eng.opts.NumPartitions + 2*eng.opts.BuildWorkers)
	if late := table.late.Load(); late > maxProducers {
		t.Errorf("%d batches landed after the cancel, want ≤ %d (one in-flight batch per producer)", late, maxProducers)
	}
	// The full workload is ~users·K² two-hop tuples; a prompt cancel
	// must have absorbed only a small prefix.
	if added := table.Added(); added > int64(users)*64 {
		t.Errorf("canceled build still added %d tuples — not prompt", added)
	}
}
