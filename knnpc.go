// Package knnpc is the public API of the out-of-core KNN system
// reproduced from "Scaling KNN Computation over Large Graphs on a PC"
// (Chiluka, Kermarrec, Olivares — Middleware 2014).
//
// The system maintains an evolving K-nearest-neighbor graph over a set
// of users with sparse profiles, on a machine whose memory holds only
// two graph partitions at a time. Each call to Iterate runs the paper's
// five phases: partition the KNN graph, populate the de-duplicated
// candidate-tuple hash table, plan the partition-interaction-graph
// traversal, score candidates and keep each user's top-K, then apply
// queued profile updates.
//
// Quick start:
//
//	profiles := [][]knnpc.Item{
//		{{ID: 1, Weight: 5}, {ID: 2, Weight: 3}},
//		{{ID: 2, Weight: 4}, {ID: 3, Weight: 1}},
//		// ...
//	}
//	sys, err := knnpc.New(profiles, knnpc.Config{K: 10})
//	if err != nil { ... }
//	defer sys.Close()
//	reports, err := sys.Run(ctx, 10)
//	neighbors := sys.Neighbors(0) // user 0's current K nearest
package knnpc

import (
	"context"
	"fmt"
	"time"

	"knnpc/internal/core"
	"knnpc/internal/exact"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

// Item is one entry of a user profile: an item identifier with a weight
// (rating, term frequency, ...).
type Item struct {
	ID     uint32
	Weight float32
}

// Config tunes the system. The zero value of every field selects a
// sensible default.
type Config struct {
	// K is the number of nearest neighbors per user. Required, ≥ 1.
	K int
	// Partitions is m, the number of graph partitions (default 8).
	Partitions int
	// PartitionStrategy is "greedy" (default — minimizes the paper's
	// Σ(N_in+N_out) criterion), "range", or "hash".
	PartitionStrategy string
	// Heuristic is the PI-graph traversal order: the paper's "Seq.",
	// "High-Low" and "Low-High", "Max-Reuse" (default; planned for Slots
	// and ExecWorkers), or the naive "Edge-Order" baseline.
	Heuristic string
	// Similarity is "cosine" (default), "jaccard", "dice" or
	// "overlap".
	Similarity string
	// Workers parallelizes similarity scoring within one candidate
	// batch (default 1). Never changes results.
	Workers int
	// ExecWorkers shards phase-4 execution itself: the iteration's
	// traversal plan is split into that many contiguous tape segments
	// (cut so no partition pair spans workers) and each segment runs on
	// its own executor goroutine with its own Slots-partition memory
	// budget over the shared state store (default 1, the paper's
	// single-cursor execution). Results are identical at every worker
	// count; the per-iteration load/unload accounting stays
	// deterministic for a fixed (Slots, ExecWorkers) — per-worker
	// counts sum to the reported totals, and ExecWorkers=1 reproduces
	// the single-cursor counts bit for bit. PrefetchDepth,
	// AsyncWriteback and ShardPrefetch apply per worker, and so does
	// the memory footprint: size MemoryBudgetBytes for ExecWorkers ×
	// (Slots + in-flight staging) partitions — workers share resident
	// instances opportunistically, but how often they overlap depends
	// on scheduling, so the worst case is what the budget must cover.
	ExecWorkers int
	// BuildWorkers parallelizes the build side of each iteration,
	// phases 1–2: the candidate-tuple streams (bridge join, direct
	// edges, exploration) are produced concurrently into the hash
	// table through batched inserts, and over a network store
	// partition states are constructed and stored one partition per
	// pool slot (default 1, the serial build). In process, phase 1
	// builds no state: each partition's is built at its first load.
	// Results and all reported accounting are bit-identical at every
	// worker count — the table de-duplicates, so its contents depend
	// only on WHAT was added, never on the order. A good setting is
	// the machine's core count; unlike ExecWorkers it needs no
	// MemoryBudgetBytes headroom, since built states are stored and
	// released immediately.
	BuildWorkers int
	// Slots is the phase-4 memory budget: at most this many partitions
	// resident at once (default 2, the paper's model; must be ≥ 2).
	// The load/unload accounting reported per iteration always matches
	// the schedule simulation for the chosen budget.
	Slots int
	// PrefetchDepth pipelines phase 4: up to this many upcoming
	// partition loads are fetched on background goroutines while the
	// current pair is scored, overlapping disk I/O with computation.
	// 0 (default) reproduces the paper's serial execution. The
	// Loads/Unloads accounting is identical at every depth; each
	// in-flight fetch transiently holds one partition beyond Slots,
	// charged against MemoryBudgetBytes while in flight.
	PrefetchDepth int
	// AsyncWriteback completes the pipeline's unload side: evicted
	// partition state is written back by a bounded background writer
	// instead of blocking the scoring cursor. Accounting is unchanged
	// (every unload still counts once); a reload of the same partition
	// waits for its pending write, and evicted state stays charged
	// against MemoryBudgetBytes until the write lands. false (default)
	// reproduces the paper's blocking write-back.
	AsyncWriteback bool
	// ShardPrefetch overlaps the third phase-4 I/O stream: up to this
	// many upcoming partition pairs have their candidate-tuple shard
	// bytes read (and de-duplicated) in the background before the
	// cursor scores them. 0 (default) reads each shard synchronously.
	// Without OnDisk there are no bytes to read, but the shard's
	// sort-and-dedup moves off the cursor just the same.
	ShardPrefetch int
	// NetStoreShards, when positive, runs phase 4 over a sharded
	// network state store served from this process over loopback: each
	// shard owns a contiguous partition range (and, under EmulateDisk,
	// its own emulated spindle), cross-worker coordination moves from
	// in-process guards to store-side leases with fencing tokens, and
	// workers write mergeable per-worker accumulator partials instead
	// of sharing memory. Results are bit-identical to the in-process
	// engine at every (Slots, ExecWorkers, shards) combination. Size
	// MemoryBudgetBytes for the full ExecWorkers × (Slots + staging)
	// partitions — private copies never share. 0 (default) keeps the
	// in-process store.
	NetStoreShards int
	// NetStoreAddrs instead connects to externally managed statestore
	// shard servers (cmd/statestore); addrs[i] serves shard i of
	// len(addrs) over Partitions partitions. Mutually exclusive with
	// NetStoreShards.
	NetStoreAddrs []string
	// PublishViews feeds the serving tier: at the end of every
	// iteration each partition's committed serve view — final top-K
	// lists and post-update profiles — is published to its state-store
	// shard, where point lookups (cmd/knnserve, or any netstore client)
	// and read replicas answer from it. Requires a network store. Off
	// by default: the publish pass reads every profile and writes every
	// view once per iteration.
	PublishViews bool
	// NetStoreReplicas additionally starts one loopback read replica
	// per NetStoreShards shard. Replicas cache the serve views with
	// epoch-based invalidation and answer lookups from their own
	// (emulated) spindles, keeping query tail latency off the primaries
	// while phase 4 hammers them. Requires NetStoreShards and
	// PublishViews.
	NetStoreReplicas bool
	// OnDisk stores partition state and tuple spills in real files
	// under ScratchDir ("" = private temp dir). When false the same
	// partition store and the same tuple table run with nowhere to
	// write: the serialized state and the raw tuples stay in memory
	// and every other code path is shared. With a network store configured,
	// partition state lives behind the store and OnDisk governs only
	// tuple spills and the profile file.
	OnDisk bool
	// ProfilesOnDisk additionally keeps the canonical profile
	// collection on disk (point reads in phase 1, streaming rewrite
	// in phase 5) so profile data is never fully memory-resident.
	ProfilesOnDisk bool
	// ScratchDir is where the engine makes its private scratch
	// directory for on-disk state ("" = the system temp dir). Engines
	// sharing one ScratchDir never see each other's files, and Close
	// removes what the engine made there.
	ScratchDir string
	// EmulateDisk, with OnDisk set, enforces a disk model's device
	// latency ("hdd", "ssd" or "nvme") on partition state I/O, so the
	// paper's latency-bound phase 4 is reproducible on hosts whose
	// page cache hides real disk cost. "" (default) adds no latency.
	EmulateDisk string
	// MemoryBudgetBytes, when positive, bounds resident partition
	// state; exceeding it fails the iteration.
	MemoryBudgetBytes int64
	// StalenessThreshold enables incremental graph maintenance in Run:
	// each pass first folds queued whole-user adds/deletes (AddUser,
	// DeleteUser) into the graph through a cheap delta commit, then
	// runs a full five-phase iteration only while some partition's
	// normalized drift score is ≥ this value. 0 (default) disables the
	// scheduling — every Run pass iterates, the paper's schedule.
	// Negative values are rejected.
	StalenessThreshold float64
	// Exploration, when positive, adds that many random candidates
	// per user each iteration. The paper's structural candidate rule
	// cannot escape a converged neighborhood after large profile
	// changes; a little random exploration fixes that. Zero (default)
	// reproduces the paper's rule exactly.
	Exploration int
	// Seed drives the random initial graph G(0).
	Seed int64
}

func (c Config) engineOptions() (core.Options, error) {
	opts := core.Options{
		K:                  c.K,
		NumPartitions:      c.Partitions,
		Workers:            c.Workers,
		ExecWorkers:        c.ExecWorkers,
		BuildWorkers:       c.BuildWorkers,
		Slots:              c.Slots,
		PrefetchDepth:      c.PrefetchDepth,
		AsyncWriteback:     c.AsyncWriteback,
		ShardPrefetch:      c.ShardPrefetch,
		NetStoreShards:     c.NetStoreShards,
		NetStoreAddrs:      c.NetStoreAddrs,
		PublishViews:       c.PublishViews,
		NetStoreReplicas:   c.NetStoreReplicas,
		OnDisk:             c.OnDisk,
		ProfilesOnDisk:     c.ProfilesOnDisk,
		ScratchDir:         c.ScratchDir,
		MemoryBudget:       c.MemoryBudgetBytes,
		RandomCandidates:   c.Exploration,
		StalenessThreshold: c.StalenessThreshold,
		Seed:               c.Seed,
	}
	err := opts.Resolve(core.Names{
		Partitioner: c.PartitionStrategy,
		Heuristic:   c.Heuristic,
		Similarity:  c.Similarity,
		DiskModel:   c.EmulateDisk,
	})
	if err != nil {
		return opts, fmt.Errorf("knnpc: %w", err)
	}
	return opts, nil
}

// Report summarizes one completed iteration.
type Report struct {
	// Iteration is the 0-based iteration index.
	Iteration int
	// Duration is the iteration's total wall time; PhasePartition
	// through PhaseUpdate break it down by the paper's five phases.
	Duration       time.Duration
	PhasePartition time.Duration
	PhaseTuples    time.Duration
	PhasePIGraph   time.Duration
	PhaseScore     time.Duration
	PhaseUpdate    time.Duration
	// TuplesScored is the number of de-duplicated candidate pairs
	// scored.
	TuplesScored int64
	// LoadUnloadOps is the number of partition load/unload operations
	// phase 4 performed — the paper's Table 1 metric. It is identical
	// for serial and pipelined execution of the same iteration.
	LoadUnloadOps int64
	// PrefetchedLoads is the subset of loads issued asynchronously
	// ahead of the scoring cursor (0 unless Config.PrefetchDepth > 0).
	PrefetchedLoads int64
	// AsyncUnloads is the subset of unloads whose write-back ran in the
	// background (0 unless Config.AsyncWriteback).
	AsyncUnloads int64
	// PrefetchedShardBytes is the tuple-shard spill volume read ahead
	// of the cursor (0 unless Config.ShardPrefetch > 0 with OnDisk).
	PrefetchedShardBytes int64
	// ExecWorkers is the number of tape segments phase 4 ran (1 for
	// single-cursor execution); WorkerOps breaks LoadUnloadOps down per
	// worker and always sums to it exactly.
	ExecWorkers int
	WorkerOps   []int64
	// BuildWorkers is the width of the phase-1/2 build pool (1 for the
	// serial build). It never changes results or accounting — only the
	// PhasePartition/PhaseTuples wall times.
	BuildWorkers int
	// EdgeChanges counts directed-edge differences between G(t) and
	// G(t+1); zero means the graph has converged.
	EdgeChanges int
	// UpdatesApplied is the number of deferred profile updates folded
	// in at the iteration boundary.
	UpdatesApplied int
}

func reportFrom(st *core.IterationStats) Report {
	return Report{
		Iteration:            st.Iteration,
		Duration:             st.Phases.Total(),
		PhasePartition:       st.Phases.Partition,
		PhaseTuples:          st.Phases.Tuples,
		PhasePIGraph:         st.Phases.PIGraph,
		PhaseScore:           st.Phases.Score,
		PhaseUpdate:          st.Phases.Update,
		TuplesScored:         st.TuplesScored,
		LoadUnloadOps:        st.Ops(),
		PrefetchedLoads:      st.PrefetchedLoads,
		AsyncUnloads:         st.AsyncUnloads,
		PrefetchedShardBytes: st.PrefetchedShardBytes,
		ExecWorkers:          st.ExecWorkers,
		WorkerOps:            append([]int64(nil), st.WorkerOps...),
		BuildWorkers:         st.BuildWorkers,
		EdgeChanges:          st.EdgeChanges,
		UpdatesApplied:       st.UpdatesApplied,
	}
}

// System is a live KNN computation over a fixed user set.
type System struct {
	eng *core.Engine
	k   int
}

// New creates a System over the given profiles (user u's profile is
// profiles[u]; duplicate item ids within one profile are an error).
func New(profiles [][]Item, cfg Config) (*System, error) {
	store, err := storeFromItems(profiles)
	if err != nil {
		return nil, err
	}
	opts, err := cfg.engineOptions()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(store, opts)
	if err != nil {
		return nil, err
	}
	return &System{eng: eng, k: cfg.K}, nil
}

func storeFromItems(profiles [][]Item) (*profile.Store, error) {
	vecs := make([]profile.Vector, len(profiles))
	for u, items := range profiles {
		entries := make([]profile.Entry, len(items))
		for i, it := range items {
			entries[i] = profile.Entry{Item: it.ID, Weight: it.Weight}
		}
		v, err := profile.NewVector(entries)
		if err != nil {
			return nil, fmt.Errorf("knnpc: profile of user %d: %w", u, err)
		}
		vecs[u] = v
	}
	return profile.NewStoreFromVectors(vecs), nil
}

// Iterate runs one five-phase KNN iteration. A Report alongside an
// error matching ErrPublishFailed describes an iteration that was
// committed; do not run it again.
func (s *System) Iterate(ctx context.Context) (Report, error) {
	st, err := s.eng.Iterate(ctx)
	if st == nil {
		return Report{}, err
	}
	return reportFrom(st), err
}

// Run executes up to maxIters iterations, stopping early on
// convergence (an iteration that changes no edges) or context
// cancellation.
func (s *System) Run(ctx context.Context, maxIters int) ([]Report, error) {
	stats, err := s.eng.Run(ctx, maxIters)
	reports := make([]Report, len(stats))
	for i, st := range stats {
		reports[i] = reportFrom(st)
	}
	return reports, err
}

// Neighbors returns user u's current K nearest neighbors, most similar
// first is not guaranteed — ids are sorted ascending (the graph form).
func (s *System) Neighbors(u uint32) []uint32 {
	return append([]uint32(nil), s.eng.Graph().Neighbors(u)...)
}

// NeighborLists returns every user's current neighbor list.
func (s *System) NeighborLists() [][]uint32 {
	g := s.eng.Graph()
	out := make([][]uint32, g.NumNodes())
	for u := range out {
		out[u] = append([]uint32(nil), g.Neighbors(uint32(u))...)
	}
	return out
}

// Profile returns user u's current profile (queued updates excluded
// until the next iteration boundary).
func (s *System) Profile(u uint32) ([]Item, error) {
	vec, err := s.eng.Profile(u)
	if err != nil {
		return nil, err
	}
	entries := vec.Entries()
	items := make([]Item, len(entries))
	for i, e := range entries {
		items[i] = Item{ID: e.Item, Weight: e.Weight}
	}
	return items, nil
}

// SetProfileItem queues an insert-or-update of one profile entry; it
// takes effect at the end of the current iteration (the paper's lazy
// update queue q).
func (s *System) SetProfileItem(u uint32, item uint32, weight float32) {
	s.eng.EnqueueUpdate(profile.Update{User: u, Kind: profile.SetItem, Item: item, Weight: weight})
}

// RemoveProfileItem queues the removal of one profile entry.
func (s *System) RemoveProfileItem(u uint32, item uint32) {
	s.eng.EnqueueUpdate(profile.Update{User: u, Kind: profile.RemoveItem, Item: item})
}

// ErrPublishFailed marks an Iterate or ApplyDeltas call whose commit
// landed but whose post-commit publish of serve views or the staleness
// document failed; the committed state is intact and the next
// successful commit republishes. Test with errors.Is.
var ErrPublishFailed = core.ErrPublishFailed

// DeltaReport summarizes one ApplyDeltas commit.
type DeltaReport struct {
	// Adds is the number of genuinely new users committed.
	Adds int
	// Upserts is the number of existing users whose profile was
	// replaced and neighborhood re-inserted.
	Upserts int
	// Deletes is the number of users tombstoned.
	Deletes int
	// Held is the number of adds that arrived ahead of their
	// sequential id and were parked for the next ApplyDeltas pass,
	// waiting for their predecessors to land.
	Held int
	// TouchedUsers counts existing users whose neighbor lists changed.
	TouchedUsers int
	// SimEvals is the number of similarity evaluations the commit
	// spent, one per scored pair — the delta path's cost, versus a full
	// iteration's.
	SimEvals int
}

// AddUser queues a whole new user (or an upsert of an existing one)
// for the next ApplyDeltas commit. New users must take the next
// sequential id; out-of-order adds are held until the gap fills.
func (s *System) AddUser(u uint32, items []Item) error {
	entries := make([]profile.Entry, len(items))
	for i, it := range items {
		entries[i] = profile.Entry{Item: it.ID, Weight: it.Weight}
	}
	vec, err := profile.NewVector(entries)
	if err != nil {
		return fmt.Errorf("knnpc: profile of user %d: %w", u, err)
	}
	s.eng.EnqueueAddUser(u, vec)
	return nil
}

// DeleteUser queues a tombstone for user u; after the next ApplyDeltas
// commit the user stops being served and is dropped from every
// neighbor list.
func (s *System) DeleteUser(u uint32) {
	s.eng.EnqueueDelUser(u)
}

// ApplyDeltas folds every queued AddUser/DeleteUser mutation into the
// committed graph without a full iteration: each add gets its exact
// top-K among the live users, and its chosen neighbors reconsider their
// lists with it; deletes tombstone. With no queued mutations it is a
// strict no-op. Run calls
// this automatically when Config.StalenessThreshold is set.
func (s *System) ApplyDeltas() (DeltaReport, error) {
	ds, err := s.eng.ApplyDeltas()
	if ds == nil {
		return DeltaReport{}, err
	}
	// A non-nil report alongside an error means ErrPublishFailed: the
	// commit landed, only the republish is outstanding.
	return DeltaReport{
		Adds:         ds.Adds,
		Upserts:      ds.Upserts,
		Deletes:      ds.Deletes,
		Held:         ds.Held,
		TouchedUsers: ds.TouchedUsers,
		SimEvals:     ds.SimEvals,
	}, err
}

// MaxStaleness reports the worst partition's normalized drift since
// the last full iteration — what Run compares against
// Config.StalenessThreshold.
func (s *System) MaxStaleness() float64 { return s.eng.MaxStaleness() }

// QueryNeighbors answers an online point lookup for user u's committed
// top-K list, stamped with the epoch (iteration count) it was
// committed at. Unlike every other System method, QueryNeighbors,
// QueryProfile and Epoch are safe to call concurrently with a running
// Iterate: mid-iteration they answer from the last committed graph —
// the serving tier's bounded-staleness contract — and block only for
// the brief commit window at the iteration boundary.
func (s *System) QueryNeighbors(u uint32) ([]uint32, uint64, error) {
	return s.eng.QueryNeighbors(u)
}

// QueryProfile answers an online point lookup for user u's committed
// profile with its epoch stamp. Safe during Iterate (see
// QueryNeighbors); updates queued but not yet applied by phase 5 are
// not visible.
func (s *System) QueryProfile(u uint32) ([]Item, uint64, error) {
	vec, epoch, err := s.eng.QueryProfile(u)
	if err != nil {
		return nil, 0, err
	}
	entries := vec.Entries()
	items := make([]Item, len(entries))
	for i, e := range entries {
		items[i] = Item{ID: e.Item, Weight: e.Weight}
	}
	return items, epoch, nil
}

// Epoch reports the number of committed iterations — the stamp the
// query methods return. Safe during Iterate.
func (s *System) Epoch() uint64 { return s.eng.Epoch() }

// StoreAddrs reports the state-store shard addresses when a network
// store is configured (nil otherwise) — what cmd/knnserve dials for
// primary lookups and update ingestion.
func (s *System) StoreAddrs() []string { return s.eng.StoreAddrs() }

// ReplicaAddrs reports the loopback read replicas' addresses when
// Config.NetStoreReplicas is set (nil otherwise) — what cmd/knnserve
// dials to serve lookups off the primaries.
func (s *System) ReplicaAddrs() []string { return s.eng.ReplicaAddrs() }

// Recall measures the system's current graph against the exact KNN
// graph under the same similarity (ExactNeighbors) — the standard
// quality metric. It is meant for evaluation, not production.
func (s *System) Recall(profiles [][]Item, cfg Config) (float64, error) {
	truth, err := ExactNeighbors(profiles, cfg)
	if err != nil {
		return 0, err
	}
	n := len(profiles)
	exactG, err := graph.NewKNN(n, cfg.K)
	if err != nil {
		return 0, err
	}
	for u, ids := range truth {
		if err := exactG.Set(uint32(u), ids); err != nil {
			return 0, err
		}
	}
	return knn.Recall(s.eng.Graph(), exactG), nil
}

// Close releases the system's scratch storage.
func (s *System) Close() error { return s.eng.Close() }

// ExactNeighbors computes the exact K-nearest neighbors of every user —
// ground truth for evaluating the iterative system. Under the built-in
// similarities each user is scored only against the users sharing an
// item with it (exact.Compute).
// Only cfg.K, cfg.Similarity and cfg.Workers are used.
func ExactNeighbors(profiles [][]Item, cfg Config) ([][]uint32, error) {
	store, err := storeFromItems(profiles)
	if err != nil {
		return nil, err
	}
	var opts core.Options
	if err := opts.Resolve(core.Names{Similarity: cfg.Similarity}); err != nil {
		return nil, fmt.Errorf("knnpc: %w", err)
	}
	g, err := exact.Compute(store, exact.Options{K: cfg.K, Sim: opts.Similarity, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	out := make([][]uint32, g.NumNodes())
	for u := range out {
		out[u] = append([]uint32(nil), g.Neighbors(uint32(u))...)
	}
	return out, nil
}
