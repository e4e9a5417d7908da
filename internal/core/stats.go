package core

import (
	"fmt"
	"time"

	"knnpc/internal/disk"
)

// PhaseTimes records the wall time of each of the paper's five phases
// in one iteration (Figure 1's pipeline).
type PhaseTimes struct {
	Partition time.Duration // phase 1: graph partitioning
	Tuples    time.Duration // phase 2: hash table H population
	PIGraph   time.Duration // phase 3: PI graph build + heuristic plan
	Score     time.Duration // phase 4: KNN computation
	Update    time.Duration // phase 5: lazy profile updates
}

// Total sums the five phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Partition + p.Tuples + p.PIGraph + p.Score + p.Update
}

// IterationStats describes one completed KNN iteration.
type IterationStats struct {
	// Iteration is the 0-based iteration index.
	Iteration int
	// Phases records per-phase wall time, summed over Attempts.
	Phases PhaseTimes
	// Attempts is how many times phases 1–4 ran: 1 on a clean run, one
	// more for every transient store failure the iteration healed by
	// restarting from phase 1 (Options.StoreRetries bounds it).
	Attempts int
	// NumPartitions is m.
	NumPartitions int
	// PartitionObjective is the paper's Σ(N_in + N_out) criterion
	// value for the chosen assignment.
	PartitionObjective int
	// TuplesAdded counts raw tuple insertions into H (duplicates
	// included); TuplesScored counts the de-duplicated tuples scored.
	TuplesAdded  int64
	TuplesScored int64
	// PIEdges is the number of undirected PI-graph edges.
	PIEdges int
	// PredictedLoads/PredictedUnloads are the phase-3 simulator's
	// counts; Loads/Unloads are the real counts measured in phase 4.
	// They are equal by construction (the same schedule executor runs
	// both), and the engine asserts it.
	PredictedLoads   int64
	PredictedUnloads int64
	Loads            int64
	Unloads          int64
	// PrefetchedLoads is the subset of Loads whose I/O was issued
	// asynchronously ahead of the scoring cursor (0 for serial
	// execution, i.e. Options.PrefetchDepth == 0). Every prefetched
	// load is still counted once in Loads, so the Table 1 Ops metric
	// is unaffected by pipelining.
	PrefetchedLoads int64
	// AsyncUnloads is the subset of Unloads whose write-back ran on a
	// background goroutine behind the cursor (0 unless
	// Options.AsyncWriteback). Like PrefetchedLoads, every async
	// unload is still counted once in Unloads.
	AsyncUnloads int64
	// MediumReads, Attaches and the builds among StateBuilds split
	// Loads by what each one cost the partition store: a read off the
	// medium (file, memory blob or network store), an attach to the
	// instance another tape worker already held, which is free, or a
	// build from P(t) at a partition's first load in process, which
	// moves no bytes. Attaches is 0 at ExecWorkers=1 and over a network
	// store, whose workers hold private copies.
	MediumReads int64
	Attaches    int64
	// StateBuilds counts the partition states built from P(t) where a
	// medium read would otherwise have been: in process, each
	// partition's first load, and collect's build of every partition
	// no tape loaded, so StateBuilds == NumPartitions. It is 0 over a
	// network store, whose phase 1 builds and PUTs every base.
	StateBuilds int64
	// StateWrites counts the partition states phase 4's releases wrote
	// to the medium, and CollectReads the states the assembly step read
	// back off it. In process nothing is written that nothing changed:
	// a partition's release after its last planned load emits its rows
	// of G(t+1) instead of writing, and collect builds what no tape
	// loaded, so every state written is read back exactly once —
	// MediumReads == StateWrites, MediumReads + Attaches + (partitions
	// loaded) == Loads — and CollectReads == 0. Over a network store
	// MediumReads + Attaches == Loads, every release writes its
	// worker's partial and collect reads every partition.
	StateWrites  int64
	CollectReads int64
	// PrefetchedShardBytes is the volume of tuple-shard spill bytes
	// read asynchronously ahead of the cursor (0 unless
	// Options.ShardPrefetch > 0 with OnDisk — nothing spills without).
	PrefetchedShardBytes int64
	// ShardReads counts the tuple-shard spill files phase 4 opened: at
	// most one per PI edge plus one per self shard (0 without OnDisk —
	// nothing spills without — and for shards that never filled a
	// spill batch).
	ShardReads int64
	// BuildWorkers is the width of the phase-1/2 build pool the
	// iteration ran with (Options.BuildWorkers; 1 for the serial
	// build). The build output — tuple counts, shard contents, and
	// therefore every downstream accounting number — is identical at
	// every width; only the Partition/Tuples phase times change.
	BuildWorkers int
	// ExecWorkers is the number of tape segments phase 4 actually ran
	// (Options.ExecWorkers, capped at the schedule's step count; 1 for
	// single-cursor execution). WorkerOps breaks the Loads+Unloads
	// total down per worker; the engine asserts the breakdown sums
	// exactly to Ops(), which in turn equals the phase-3 prediction for
	// the configured (Slots, ExecWorkers).
	ExecWorkers int
	WorkerOps   []int64
	// EdgeChanges is the number of directed edges by which G(t+1)
	// differs from G(t) — the convergence signal.
	EdgeChanges int
	// UpdatesApplied is the number of queued profile updates folded
	// into P(t+1) in phase 5.
	UpdatesApplied int
	// UpdatesDropped is the number of drained updates phase 5 discarded
	// because their user is outside P(t) or their kind is unknown.
	UpdatesDropped int
	// IO is the I/O counter delta for the whole iteration.
	IO disk.Snapshot
}

// Ops reports measured Loads + Unloads, Table 1's metric.
func (s IterationStats) Ops() int64 { return s.Loads + s.Unloads }

// String implements fmt.Stringer with a one-line summary.
func (s IterationStats) String() string {
	return fmt.Sprintf("iter %d: m=%d tuples=%d pi-edges=%d ops=%d changes=%d total=%v",
		s.Iteration, s.NumPartitions, s.TuplesScored, s.PIEdges, s.Ops(), s.EdgeChanges, s.Phases.Total())
}
