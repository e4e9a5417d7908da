package core

import (
	"fmt"
	"time"

	"knnpc/internal/disk"
	"knnpc/internal/partition"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
)

// Options configures an Engine. Zero fields select the documented
// defaults.
type Options struct {
	// K is the number of nearest neighbors per user (required, ≥ 1).
	K int
	// NumPartitions is m, the partition count (default 8; must be
	// ≥ 2 so the two-slot memory model is meaningful, except that
	// graphs smaller than m shrink it).
	NumPartitions int
	// Partitioner is the phase-1 strategy (default partition.Greedy).
	Partitioner partition.Partitioner
	// Heuristic is the phase-3 PI traversal order (default
	// pigraph.MaxReuse planned for this engine's Slots and ExecWorkers).
	Heuristic pigraph.Heuristic
	// Similarity is sim(s,d) (default profile.Cosine).
	Similarity profile.Similarity
	// Workers parallelizes similarity scoring within one pair batch
	// (default 1). It never changes results — scores land in a slice
	// indexed by tuple position.
	Workers int
	// ExecWorkers shards the phase-4 op tape itself: the schedule's
	// visit sequence is split into that many contiguous segments at
	// pair boundaries and each segment runs on its own executor
	// goroutine with its own Slots-slot budget, evicted by MIN, over the
	// shared state store (default 1, the single-cursor execution). Workers
	// that hold the same partition concurrently share one in-memory
	// instance through the in-process partition store, and accumulator
	// folds serialize per partition, so the scored output is identical
	// to serial execution at every worker count. The Loads/Unloads
	// accounting generalizes deterministically: per-worker counts
	// depend only on (Slots, ExecWorkers) and sum to the totals the
	// phase-3 simulator predicts — asserted every iteration —
	// with ExecWorkers=1 reproducing the single-cursor counts bit for
	// bit. Each worker runs the full pipelined executor, so
	// PrefetchDepth/AsyncWriteback/ShardPrefetch apply per worker —
	// and so does the residency footprint: MemoryBudget must be sized
	// for the worst case of ExecWorkers × (Slots + in-flight staging)
	// partitions, because instance sharing across workers depends on
	// scheduling and cannot be counted on. A budget sized for the
	// single-cursor guidance can fail an ExecWorkers>1 iteration with
	// ErrBudgetExceeded on some runs and not others.
	ExecWorkers int
	// BuildWorkers parallelizes the build side, phases 1–2: the three
	// phase-2 tuple streams (bridge generators, direct edges, random
	// exploration) produce concurrently into the hash table H through
	// batched adds, and over a network store phase 1's state
	// construction and base PUTs run one partition per pool slot
	// (default 1, the serial build). In process, phase 1 builds no
	// state: the partition store builds each at its first load. The
	// build output is bit-identical at every worker count: H
	// de-duplicates and counts per shard, so everything downstream —
	// ShardCounts, the PI graph, the schedule, and therefore the
	// Table 1 Loads/Unloads accounting — depends only on the tuple
	// multiset, which the producer decomposition preserves exactly.
	// Unlike ExecWorkers, BuildWorkers needs no extra MemoryBudget
	// headroom: partition states are built, stored and released one
	// at a time per slot, never held resident.
	BuildWorkers int
	// Slots is the phase-4 memory budget S: at most S partitions
	// resident at once (default 2, the paper's model; must be ≥ 2).
	// The phase-3 simulator predicts, and the engine asserts, the
	// Loads/Unloads counts for whatever S is chosen, so Table 1
	// reproduction always runs with the default.
	Slots int
	// PrefetchDepth enables pipelined phase-4 execution: up to this
	// many upcoming partition loads are fetched on background
	// goroutines while the current pair is being scored. 0 (default)
	// is the paper's fully serial execution. Prefetching never changes
	// the Loads/Unloads accounting — only wall time — but each
	// in-flight fetch transiently holds one partition's state beyond
	// the S slots. That staging memory is charged to MemoryBudget the
	// moment it is fetched, so a budget sized for exactly S partitions
	// has no prefetch headroom and the iteration fails with
	// ErrBudgetExceeded rather than silently exceeding the bound.
	PrefetchDepth int
	// AsyncWriteback completes the phase-4 pipeline on the unload side:
	// an evicted partition's state is written back by a bounded
	// background writer instead of blocking the scoring cursor. The
	// cursor still evicts at the unload's tape position, so the
	// Loads/Unloads accounting is identical; a reload of the same
	// partition waits for the pending write (the symmetric hazard), and
	// every write lands before the iteration returns. The evicted
	// state's memory stays charged to MemoryBudget until its write
	// completes, exactly like a prefetched load is charged from fetch
	// time. The in-flight bound is max(1, PrefetchDepth), symmetric to
	// the load side.
	AsyncWriteback bool
	// ShardPrefetch streams the third phase-4 I/O stream alongside
	// partition state: up to this many upcoming pair/self steps have
	// their tuple-shard spill bytes read (and de-duplicated) on
	// background goroutines before the cursor needs them. 0 (default)
	// reads every shard synchronously inside the pair step. A shard that
	// never spilled (every shard, without OnDisk) has no bytes to read
	// but its sort-and-dedup moves off the cursor just the same.
	ShardPrefetch int
	// NetStoreShards, when positive, moves partition state behind an
	// in-process loopback cluster of that many network state-store
	// shards (internal/netstore): each shard owns a contiguous
	// partition range and — under EmulateDisk — its own emulated
	// spindle, so phase-4 state I/O queues per shard instead of on the
	// one shared device that caps multi-worker execution. The phase-4
	// partition store switches from in-process guards to store-side
	// leases with fencing tokens, and each tape worker scores into a
	// private accumulator partial that merges commutatively at collect
	// time — workers never share memory, so results are bit-identical
	// to the in-process engine at every (Slots, ExecWorkers, shards)
	// combination and the same code path runs across real processes.
	// Budget note: without instance sharing, MemoryBudget must cover
	// the full ExecWorkers × (Slots + in-flight staging) partitions.
	// Mutually exclusive with NetStoreAddrs. Requires NetStoreShards ≤
	// NumPartitions (every shard owns at least one partition).
	NetStoreShards int
	// NetStoreAddrs connects to an externally managed state-store
	// cluster instead (cmd/statestore): addrs[i] must be shard i of
	// len(addrs) over NumPartitions partitions, the same contiguous
	// routing the servers validate. Everything said for NetStoreShards
	// applies, except device emulation for state I/O is the servers'
	// configuration, not this engine's.
	NetStoreAddrs []string
	// PublishViews turns on the serving tier's data feed: at the end of
	// every iteration the engine publishes each partition's committed
	// serve view — every member's final top-K list and post-update
	// profile — to its state-store shard, stamped with the epoch the
	// iteration's phase-1 base PUT opened. Point lookups (NEIGHBORS,
	// PROFILE) and read replicas answer from these views. Off by
	// default because the publish pass reads every profile and writes
	// every view once per iteration — compute-only runs shouldn't pay
	// that. Requires a network store (NetStoreShards or NetStoreAddrs).
	PublishViews bool
	// NetStoreReplicas additionally starts one loopback read replica
	// per shard of the NetStoreShards cluster, shadowing its primary.
	// Replicas answer point lookups from an epoch-invalidated cache of
	// the serve views on their own emulated spindles (named
	// "replica0", ... under EmulateDisk), so lookup traffic stops
	// queueing on the primaries' devices during phase 4. Requires
	// NetStoreShards and PublishViews; with an external cluster
	// (NetStoreAddrs), run `cmd/statestore -replicaof` instead.
	NetStoreReplicas bool
	// StoreRetries is the budget of the engine's one retry ladder (the
	// only one above the store client's per-op retries): how many times
	// one Iterate or ApplyDeltas retries a step that failed transiently
	// at the store — shard restart, dropped connection, injected fault,
	// stale lease. A
	// failed compute (phases 1–4 and the graph assembly) restarts from
	// phase 1, whose base PUTs drop every partial and revoke every lease
	// the failed attempt left behind, so a healed iteration produces
	// exactly the graph a fault-free one would; a failed remote drain
	// (phase 5's or the delta pass's) or post-commit publish re-issues
	// that one exchange. Each step has the budget to itself. Meaningful only with a network store; 0 defaults
	// to 3.
	StoreRetries int
	// StoreRetryBackoff is the pause before the first retry, doubled for
	// each further one up to 32× (jitter-free — determinism of the
	// result does not depend on timing). 0 defaults to 250ms.
	StoreRetryBackoff time.Duration
	// OnDisk selects real file-backed partition state and tuple
	// spills under ScratchDir; false hands the partition store and the
	// tuple table no scratch directory, so serialized state and raw
	// tuples stay in memory (same code, no file traffic). With a
	// network store configured, partition state lives behind the store
	// instead and OnDisk governs only the tuple spills and profile
	// file.
	OnDisk bool
	// ProfilesOnDisk additionally keeps the canonical profile
	// collection P(t) in a disk file (profile.FileStore): phase 1
	// reads member profiles with positioned reads and phase 5 applies
	// updates by streaming rewrite. This is the paper's setting —
	// profile data is never fully resident.
	ProfilesOnDisk bool
	// ScratchDir is where the engine makes its private scratch
	// directory (disk.NewScratch; "" = the system temp dir), which holds
	// the on-disk state until Close removes it.
	ScratchDir string
	// EmulateDisk, when non-nil with OnDisk set, enforces the model's
	// device latency on every partition state load and unload (a
	// modeled seek plus transfer time is slept on top of the host's
	// real file I/O). This reproduces the paper's latency-bound phase 4
	// on hosts whose page cache would otherwise hide the cost the
	// Loads/Unloads metric models, making serial-vs-pipelined
	// comparisons meaningful anywhere. I/O counters are unaffected.
	EmulateDisk *disk.Model
	// MemoryBudget, when positive, bounds the bytes of resident
	// partition state; loading beyond it fails with
	// disk.ErrBudgetExceeded.
	MemoryBudget int64
	// TupleBatch tunes the hash table's per-shard spill batch (default
	// 1024 tuples; nothing spills without OnDisk).
	TupleBatch int
	// RandomCandidates, when positive, injects that many uniformly
	// random extra candidates per user into H each iteration. The
	// paper's candidate rule is purely structural (neighbors and
	// neighbors' neighbors), which cannot escape a converged
	// neighborhood after a large profile change; random exploration —
	// the standard remedy in the gossip-based KNN literature — fixes
	// that at O(n·R) extra similarity evaluations per iteration.
	// Zero (the default) reproduces the paper exactly. Each user's
	// draws come from a generator seeded by Seed ^ hash(iteration,
	// user), so the stream is a per-user pure function — shardable
	// across BuildWorkers with identical output at every count —
	// rather than one serial RNG whose draw order an execution would
	// have to preserve.
	RandomCandidates int
	// Seed drives the random initial graph G(0) and the
	// RandomCandidates sampling.
	Seed int64
	// StalenessThreshold enables delta scheduling in Run: a pass first
	// applies queued user adds/deletes through the cheap delta path,
	// then runs a full five-phase iteration only if some partition's
	// normalized drift — (adds + deletes + touched-edges/K) / members
	// since its last full iteration — has reached this threshold.
	// 0 (the default) disables the scheduler: every pass iterates,
	// exactly the pre-delta behavior. Must not be negative.
	StalenessThreshold float64
}

func (o *Options) applyDefaults() {
	if o.NumPartitions == 0 {
		o.NumPartitions = 8
	}
	if o.Partitioner == nil {
		o.Partitioner = partition.Greedy{}
	}
	if o.Similarity == nil {
		o.Similarity = profile.Cosine{}
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.ExecWorkers == 0 {
		o.ExecWorkers = 1
	}
	if o.BuildWorkers == 0 {
		o.BuildWorkers = 1
	}
	if o.Slots == 0 {
		o.Slots = 2
	}
	if o.Heuristic == nil {
		o.Heuristic = pigraph.MaxReuse(o.Slots, o.ExecWorkers)
	}
	if o.StoreRetries == 0 {
		o.StoreRetries = 3
	}
	if o.StoreRetryBackoff == 0 {
		o.StoreRetryBackoff = 250 * time.Millisecond
	}
}

// Names selects the strategies Options holds as values by the names
// the public Config and the command lines spell them with. "" keeps
// the option's value, which is its default when unset.
type Names struct {
	// Partitioner is a partition.Partitioner's Name: "greedy",
	// "range" or "hash".
	Partitioner string
	// Heuristic is a pigraph.Heuristic's Name, planned for the
	// options' Slots and ExecWorkers.
	Heuristic string
	// Similarity is a profile.Similarity's Name: "cosine",
	// "jaccard", "dice" or "overlap".
	Similarity string
	// DiskModel is EmulateDisk's preset: "hdd", "ssd" or "nvme".
	DiskModel string
}

// Resolve applies o's defaults, then sets each strategy names
// selects. It is the one place a name becomes a strategy; New checks
// the result.
func (o *Options) Resolve(names Names) error {
	o.applyDefaults()
	if names.Partitioner != "" {
		p, ok := partition.ByName(names.Partitioner)
		if !ok {
			return fmt.Errorf("core: unknown partitioner %q", names.Partitioner)
		}
		o.Partitioner = p
	}
	if names.Heuristic != "" {
		h, ok := pigraph.HeuristicByName(names.Heuristic, o.Slots, o.ExecWorkers)
		if !ok {
			return fmt.Errorf("core: unknown heuristic %q", names.Heuristic)
		}
		o.Heuristic = h
	}
	if names.Similarity != "" {
		s, ok := profile.ByName(names.Similarity)
		if !ok {
			return fmt.Errorf("core: unknown similarity %q", names.Similarity)
		}
		o.Similarity = s
	}
	if names.DiskModel != "" {
		m, err := disk.ResolveModel(names.DiskModel)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		o.EmulateDisk = m
	}
	return nil
}

// execOptions derives phase 4's executor options, whose rules
// pigraph.ExecOptions.Validate states.
func (o *Options) execOptions() pigraph.ExecOptions {
	exec := pigraph.ExecOptions{
		Slots:         o.Slots,
		PrefetchDepth: o.PrefetchDepth,
		ShardAhead:    o.ShardPrefetch,
		Workers:       o.ExecWorkers,
	}
	if o.AsyncWriteback {
		// The in-flight write bound mirrors the load lookahead, so the
		// two pipeline directions stay symmetric.
		exec.WritebackDepth = max(1, o.PrefetchDepth)
	}
	return exec
}

// validate checks every rule of defaulted options for an engine over
// users users, before New clamps NumPartitions to users.
func (o *Options) validate(users int) error {
	if o.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", o.K)
	}
	if users < 2 {
		return fmt.Errorf("core: need at least 2 users, have %d", users)
	}
	if o.NumPartitions < 2 {
		return fmt.Errorf("core: need at least 2 partitions, got %d", o.NumPartitions)
	}
	if err := o.execOptions().Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if o.BuildWorkers < 0 {
		return fmt.Errorf("core: negative build worker count %d", o.BuildWorkers)
	}
	if o.StalenessThreshold < 0 {
		return fmt.Errorf("core: negative staleness threshold %g", o.StalenessThreshold)
	}
	// A negative count would otherwise select the in-process store.
	if o.NetStoreShards < 0 {
		return fmt.Errorf("core: negative state-store shard count %d", o.NetStoreShards)
	}
	if o.NetStoreShards > 0 && len(o.NetStoreAddrs) > 0 {
		return fmt.Errorf("core: NetStoreShards and NetStoreAddrs are mutually exclusive (loopback cluster vs external servers)")
	}
	netstoreMode := o.NetStoreShards > 0 || len(o.NetStoreAddrs) > 0
	if o.EmulateDisk != nil && !o.OnDisk && !netstoreMode {
		return fmt.Errorf("core: EmulateDisk requires OnDisk (the in-memory state store has no device to emulate)")
	}
	if o.PublishViews && !netstoreMode {
		return fmt.Errorf("core: PublishViews requires a network store (NetStoreShards or NetStoreAddrs) to publish to")
	}
	if o.NetStoreReplicas && o.NetStoreShards == 0 {
		return fmt.Errorf("core: NetStoreReplicas requires the loopback cluster (NetStoreShards); replicate external shards with `statestore -replicaof`")
	}
	if o.NetStoreReplicas && !o.PublishViews {
		return fmt.Errorf("core: NetStoreReplicas without PublishViews would serve nothing (replicas answer from published serve views)")
	}
	// Graphs smaller than m shrink it, and every shard must own at
	// least one of the partitions left.
	m := min(o.NumPartitions, users)
	if o.NetStoreShards > m {
		return fmt.Errorf("core: %d state-store shards over %d partitions would leave a shard empty", o.NetStoreShards, m)
	}
	if len(o.NetStoreAddrs) > m {
		return fmt.Errorf("core: %d state-store addresses over %d partitions would leave a shard empty", len(o.NetStoreAddrs), m)
	}
	return nil
}
