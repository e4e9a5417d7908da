// Package core implements the paper's contribution: an out-of-core KNN
// engine for a memory-constrained PC that runs each iteration in five
// phases — (1) partition the KNN graph G(t), (2) populate the
// de-duplicating tuple hash table H, (3) build the partition interaction
// graph and plan its traversal, (4) score tuples with at most S
// partitions resident (two in the paper; optionally pipelined with
// asynchronous lookahead prefetch) and keep each user's top-K,
// yielding G(t+1), and (5) lazily apply queued profile updates to
// obtain P(t+1).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"knnpc/internal/delta"
	"knnpc/internal/disk"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/netstore"
	"knnpc/internal/partition"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
	"knnpc/internal/tuples"
)

// Engine drives KNN iterations over a fixed user set. Create one with
// New, run iterations with Iterate or Run, and Close it to release the
// scratch directory.
//
// An Engine is not safe for concurrent method calls, with two
// exceptions: EnqueueUpdate may be called from any goroutine at any
// time (the update queue is the paper's concurrent ingestion point),
// and the query methods — QueryNeighbors, QueryProfile, Epoch — may
// run concurrently with an in-flight Iterate and with each other.
// Queries read the last committed state: mid-iteration they answer
// from G(t)/P(t) until the iteration's commit point, then from
// G(t+1)/P(t+1).
type Engine struct {
	opts       Options
	exec       pigraph.ExecOptions   // phase 4's executor options, derived from opts once
	profiles   canonicalProfiles     // canonical P(t)
	updates    inbox[profile.Update] // the paper's queue q, drained by phase 5
	g          *graph.KNN            // G(t)
	iostats    disk.IOStats
	budget     *disk.Budget
	scratch    *disk.Scratch
	device     *disk.Device         // emulated local spindle for file-backed state/shard I/O (nil = none)
	netCluster *netstore.Cluster    // loopback shard servers (NetStoreShards mode only)
	netClient  *netstore.Client     // sharded state-store client (nil = in-process store)
	replicas   *netstore.ReplicaSet // loopback read replicas (NetStoreReplicas mode only)
	iter       int
	closed     bool

	// serveMu is the query/commit boundary: commit takes the write
	// side only around the commit window (profile-store writes, graph
	// and tombstone swap), queries take the read side. Everything else
	// an iteration or delta pass does runs outside it, so lookups stay
	// answerable through phase 4.
	serveMu sync.RWMutex
	epoch   uint64 // committed epochs (iterations + delta commits); guarded by serveMu

	// Delta-path state (see delta.go). deltas is the local mutation
	// queue; dead the committed tombstone set (written only inside
	// commit windows, read under serveMu's read side by queries and
	// unsynchronized by the single-threaded iteration path); tracker
	// the per-partition drift counters; lastAssign/lastParts the
	// partitioning of the last full iteration, which places delta
	// commits' users and views; deltaAssign/deltaMembers the
	// partition slots of users added since; deltaBacklog the drained-
	// but-uncommitted mutations a failed or incomplete ApplyDeltas
	// pass parked for retry (store journals clear on drain, so this is
	// their only home). republish marks the partitions whose published
	// serve view the next delta commit must republish: it still holds a
	// copy of a user the last full publish moved to a later partition
	// (see publishMembers), or a publish that stayed down never PUT it.
	deltas       inbox[delta.Mutation]
	dead         graph.NodeSet
	tracker      *delta.Tracker
	lastAssign   *partition.Assignment
	lastParts    []*partition.Data
	deltaAssign  map[uint32]int
	deltaMembers map[int][]uint32
	deltaBacklog []delta.Mutation
	republish    []bool
}

// New creates an engine over the given profiles. G(0) is a random
// K-regular graph seeded by opts.Seed (replaceable via SetGraph).
//
// The canonical profile store and the KNN graph structure stay in
// memory (K·n edge ids); the per-partition working set of phase 4 —
// profiles and accumulators, the memory hogs the paper worries about —
// is loaded at most two partitions at a time through the state store.
func New(store *profile.Store, opts Options) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("core: profile store is required")
	}
	opts.applyDefaults()
	n := store.NumUsers()
	if err := opts.validate(n); err != nil {
		return nil, err
	}
	opts.NumPartitions = min(opts.NumPartitions, n)
	g, err := graph.RandomKNN(n, opts.K, rand.New(rand.NewSource(opts.Seed)))
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:         opts,
		exec:         opts.execOptions(),
		profiles:     memCanonical{store: store},
		g:            g,
		budget:       disk.NewBudget(opts.MemoryBudget),
		tracker:      delta.NewTracker(opts.K),
		deltaAssign:  make(map[uint32]int),
		deltaMembers: make(map[int][]uint32),
		republish:    make([]bool, opts.NumPartitions),
	}
	// fail releases everything a partially built engine acquired;
	// e.profiles is still memCanonical, which holds nothing to close. The
	// construction error is the one to report, so Close's is dropped.
	fail := func(err error) (*Engine, error) {
		_ = e.Close()
		return nil, err
	}
	if opts.EmulateDisk != nil && opts.OnDisk {
		e.device = disk.NewNamedDevice(*opts.EmulateDisk, "spindle")
		e.iostats.RegisterDevice(e.device)
	}
	switch {
	case opts.NetStoreShards > 0:
		cluster, err := netstore.StartCluster(opts.NetStoreShards, opts.NumPartitions, opts.EmulateDisk)
		if err != nil {
			return fail(err)
		}
		e.netCluster = cluster
		for _, dev := range cluster.Devices() {
			e.iostats.RegisterDevice(dev)
		}
		client, err := netstore.Dial(cluster.Addrs(), opts.NumPartitions)
		if err != nil {
			return fail(err)
		}
		e.netClient = client
		if opts.NetStoreReplicas {
			replicas, err := netstore.StartReplicas(cluster.Addrs(), opts.NumPartitions, opts.EmulateDisk)
			if err != nil {
				return fail(err)
			}
			e.replicas = replicas
			for _, rep := range replicas.Replicas() {
				e.iostats.RegisterDevice(rep.Device())
			}
		}
	case len(opts.NetStoreAddrs) > 0:
		client, err := netstore.Dial(opts.NetStoreAddrs, opts.NumPartitions)
		if err != nil {
			return fail(err)
		}
		e.netClient = client
	}
	if opts.OnDisk || opts.ProfilesOnDisk {
		scratch, err := disk.NewScratch(opts.ScratchDir)
		if err != nil {
			return fail(err)
		}
		e.scratch = scratch
	}
	if opts.ProfilesOnDisk {
		fs, err := profile.CreateFileStore(e.scratch.Path("profiles.bin"), &e.iostats, store.Vectors())
		if err != nil {
			return fail(fmt.Errorf("core: create disk profile store: %w", err))
		}
		e.profiles = fs
	}
	return e, nil
}

// SetGraph replaces G(t) (e.g. with a warm start). The graph must match
// the engine's user count and K bound.
func (e *Engine) SetGraph(g *graph.KNN) error {
	if g.NumNodes() != e.profiles.NumUsers() {
		return fmt.Errorf("core: graph has %d nodes, engine has %d users", g.NumNodes(), e.profiles.NumUsers())
	}
	if g.K() > e.opts.K {
		return fmt.Errorf("core: graph K=%d exceeds engine K=%d", g.K(), e.opts.K)
	}
	e.g = g.Clone()
	return nil
}

// Heuristic reports the phase-3 planner the engine runs:
// Options.Heuristic, or the default built for Slots and ExecWorkers.
func (e *Engine) Heuristic() pigraph.Heuristic { return e.opts.Heuristic }

// Graph returns a copy of the current KNN graph G(t).
func (e *Engine) Graph() *graph.KNN { return e.g.Clone() }

// Profile returns user u's current profile (from P(t); queued updates
// are not yet visible, per the paper's lazy-update contract).
func (e *Engine) Profile(u uint32) (profile.Vector, error) { return e.profiles.Profile(u) }

// EnqueueUpdate defers a profile change to the end of the current
// iteration (phase 5). Safe for concurrent use.
func (e *Engine) EnqueueUpdate(u profile.Update) { e.updates.put(u) }

// IOStats returns a snapshot of the engine's cumulative I/O counters.
func (e *Engine) IOStats() disk.Snapshot { return e.iostats.Snapshot() }

// Close releases the canonical profile store, the scratch directory,
// and — in network-store mode — the store client and any loopback
// shard servers. The engine must not be used afterwards.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.profiles.Close()
	if e.scratch != nil {
		if serr := e.scratch.Close(); err == nil {
			err = serr
		}
	}
	if e.replicas != nil {
		if cerr := e.replicas.Close(); err == nil {
			err = cerr
		}
	}
	if e.netClient != nil {
		if cerr := e.netClient.Close(); err == nil {
			err = cerr
		}
	}
	if e.netCluster != nil {
		if cerr := e.netCluster.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Run executes up to maxIters passes. Each pass first applies queued
// user adds/deletes through the delta path (ApplyDeltas), then — if
// the staleness scheduler calls for one (NeedsIteration; always, with
// StalenessThreshold 0) — a full five-phase iteration. Run stops early
// when scheduling skips the iteration (nothing new arrives mid-Run
// after the first skip), when an iteration changes no edges
// (convergence), or when the context is canceled.
func (e *Engine) Run(ctx context.Context, maxIters int) ([]*IterationStats, error) {
	var all []*IterationStats
	for i := 0; i < maxIters; i++ {
		if _, err := e.applyDeltas(ctx); err != nil {
			return all, err
		}
		if !e.NeedsIteration() {
			break
		}
		st, err := e.Iterate(ctx)
		if st != nil { // committed, even when its publish failed
			all = append(all, st)
		}
		if err != nil {
			return all, err
		}
		if st.EdgeChanges == 0 {
			break
		}
	}
	return all, nil
}

// Iterate runs one full five-phase KNN iteration, transforming G(t)
// into G(t+1) and P(t) into P(t+1): compute G(t+1) from committed state
// without touching any of it, drain the queued updates, swap both in
// under the commit window, publish. Everything before the window can be
// cured by doing it again, and retryStore is the one place that does: a
// transiently failed compute restarts from phase 1, a failed drain or
// publish re-issues that exchange. A publish that stays down past the
// budget returns the committed iteration's stats with an error matching
// ErrPublishFailed — never re-run such an iteration.
func (e *Engine) Iterate(ctx context.Context) (*IterationStats, error) {
	if e.closed {
		return nil, fmt.Errorf("core: engine is closed")
	}
	stats := &IterationStats{Iteration: e.iter, NumPartitions: e.opts.NumPartitions}
	ioStart := e.iostats.Snapshot()
	e.budget.ResetPeak()
	states := e.newPartStore()
	defer states.cleanup()

	var it *iteration
	err := e.retryStore(ctx, func() (err error) {
		stats.Attempts++
		it, err = e.compute(ctx, states, stats)
		return err
	})
	if err != nil {
		return nil, err
	}
	stats.StateAllocs, stats.BudgetPeak = states.stateAllocs(), e.budget.Peak()
	if err := runPhase(ctx, it, 5, "profile updates", &stats.Phases.Update, e.phaseUpdate); err != nil {
		return nil, err
	}

	// Committed: from here on a failure must not look like a failed
	// iteration, or a caller would run — and commit — it twice.
	views := e.fullViews(it)
	e.adoptPartitioning(it)
	e.iter++
	err = e.publish(ctx, views, false)
	stats.IO = e.iostats.Snapshot().Sub(ioStart)
	return stats, err
}

// iteration is one compute attempt's working set, handed from phase to
// phase. Nothing in it is engine state until phaseUpdate commits next.
type iteration struct {
	stats  *IterationStats
	states partStore

	dg     *graph.Digraph        // G(t) as phase 1 partitioned it
	assign *partition.Assignment // phase 1
	parts  []*partition.Data     // phase 1
	table  *tuples.DiskTable     // phase 2; consumed by phase 4

	schedule *pigraph.Schedule // phase 3
	loads    []int             // phase 3: planned loads per partition

	next *graph.KNN // phase 4: G(t+1), not yet committed
}

// runPhase is the one place a phase starts, is timed and fails: it
// refuses to start under a canceled context, adds the phase's wall time
// to *spent (summed over compute attempts) and names the phase in its
// error.
func runPhase(ctx context.Context, it *iteration, n int, name string, spent *time.Duration, phase func(context.Context, *iteration) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: canceled before phase %d (%s): %w", n, name, err)
	}
	start := time.Now()
	err := phase(ctx, it)
	*spent += time.Since(start)
	if err != nil {
		return fmt.Errorf("core: phase %d (%s): %w", n, name, err)
	}
	return nil
}

// retryStore is the engine's one retry ladder, the only one above the
// store client's per-op retries. It runs op until it succeeds; a
// transient store failure (storeTransient) is retried up to
// Options.StoreRetries times, pausing StoreRetryBackoff doubled per
// retry (up to 32×, so a budget sized to outlast a shard restart does
// not end up sleeping for minutes); any other error, a canceled
// context, or an engine with no network store ends it. What a retry
// repeats is op's business: the whole compute, or one drain or publish
// exchange.
func (e *Engine) retryStore(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || e.netClient == nil || attempt >= e.opts.StoreRetries || !storeTransient(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(e.opts.StoreRetryBackoff << min(attempt, 5)):
		}
	}
}

// compute runs phases 1–4 — everything an iteration does before it
// touches committed state — as one restartable unit: a pure function of
// (G(t), P(t), tombstones, seed, iteration number), so an attempt that
// failed anywhere is cured by running it again, byte-identically. It
// restarts from phase 1, not from the failed phase: the tuple table is
// consume-once (phase 4 reads each shard once, and a new table rewrites
// its spill file from the start), so phases 2–3 must be rebuilt
// anyway, and phase 1's base PUT is the network store's fencing point —
// it drops the partition's partials and revokes its leases — so nothing
// the failed attempt, or a worker still in flight from it, left on a
// shard reaches the new attempt's collect.
// Only the network store is retried; the in-process store writes
// nothing in phase 1.
func (e *Engine) compute(ctx context.Context, states partStore, stats *IterationStats) (*iteration, error) {
	it := &iteration{stats: stats, states: states}
	defer func() {
		if it.table != nil {
			it.table.Close()
		}
	}()
	phases := [...]struct {
		name  string
		spent *time.Duration
		run   func(context.Context, *iteration) error
	}{
		{"partition", &stats.Phases.Partition, e.phasePartition},
		{"hash table", &stats.Phases.Tuples, e.phaseTuples},
		{"PI graph", &stats.Phases.PIGraph, e.phasePIGraph},
		{"KNN computation", &stats.Phases.Score, e.phaseScore},
	}
	for i, ph := range phases {
		if err := runPhase(ctx, it, i+1, ph.name, ph.spent, ph.run); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// phasePartition is phase 1: partition G(t), then open the partition
// store over the partitioning with the builder of each partition's
// fresh state — member profile snapshots plus empty accumulators. The
// network store builds and PUTs every state now, on the BuildWorkers
// pool; the in-process one builds each at its first load.
func (e *Engine) phasePartition(ctx context.Context, it *iteration) error {
	it.dg = e.g.Digraph()
	assign, err := e.opts.Partitioner.Partition(it.dg, e.opts.NumPartitions)
	if err != nil {
		return err
	}
	it.assign = assign
	it.parts = partition.Build(it.dg, assign)
	it.stats.PartitionObjective = partition.Objective(it.dg, assign)
	it.stats.BuildWorkers = e.opts.BuildWorkers
	build := func(p *partition.Data, into *partState) (*partState, error) {
		return newPartState(p, e.profiles, e.opts.K, into)
	}
	if err := it.states.open(ctx, it.parts, build, it.stats.BuildWorkers); err != nil {
		return fmt.Errorf("state init: %w", err)
	}
	return nil
}

// phaseTuples is phase 2: populate the hash table H — bridge tuples,
// the direct edges of G(t), and the exploration stream — from
// concurrent producers on the build pool, emitting in batches.
func (e *Engine) phaseTuples(ctx context.Context, it *iteration) error {
	table := e.newTable(it.assign)
	it.table = table
	// Tombstoned users neither emit nor receive candidates: the table
	// drops their tuples at the door.
	table.SetTombstones(e.dead)
	if err := e.populateTable(ctx, it.dg, it.parts, table); err != nil {
		return fmt.Errorf("populate H: %w", err)
	}
	it.stats.TuplesAdded = table.Added()
	return nil
}

// phasePIGraph is phase 3: the partition interaction graph, the
// heuristic's traversal plan, the simulator's prediction of the
// load/unload ops phase 4 will measure, and how many of those loads
// each partition gets.
func (e *Engine) phasePIGraph(_ context.Context, it *iteration) error {
	pi, err := pigraph.FromTupleCounts(e.opts.NumPartitions, it.table.ShardCounts())
	if err != nil {
		return err
	}
	it.stats.PIEdges = pi.NumEdges()
	it.schedule = e.opts.Heuristic.Plan(pi)
	predicted, err := it.schedule.Simulate(e.exec)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	it.stats.PredictedLoads, it.stats.PredictedUnloads = predicted.Loads, predicted.Unloads
	if it.loads, err = it.schedule.LoadCounts(e.exec); err != nil {
		return fmt.Errorf("load counts: %w", err)
	}
	return nil
}

// phaseScore is phase 4: execute the schedule under the S-slot memory
// model — sharded across ExecWorkers tape segments — scoring shards and
// folding results into the owning partitions' accumulators through the
// partition store, which hands each partition's final accumulators to
// the row emitter of G(t+1) — at its last release, or from collect.
// Each worker's executor overlaps up to three I/O streams with its
// scoring cursor: PrefetchDepth upcoming partition fetches,
// AsyncWriteback's bounded background write-backs (where emission then
// runs too), and ShardPrefetch tuple-shard reads.
func (e *Engine) phaseScore(ctx context.Context, it *iteration) error {
	// G(t+1) exists before the run so releases can emit into it; an
	// aborted run drops it with everything else.
	next, err := graph.NewKNN(e.profiles.NumUsers(), e.opts.K)
	if err != nil {
		return err
	}
	it.states.arm(it.loads, func(st *partState) error { return st.emitRows(next) })
	writesBefore := e.iostats.Snapshot().Unloads

	runCtx, cancelRun := context.WithCancel(ctx)
	shared := &phase4Shared{
		engine: e,
		assign: it.assign,
		owner:  it.states,
		table:  it.table,
		ctx:    runCtx,
		cancel: cancelRun,
	}
	result, perWorker, err := it.schedule.ExecuteParallel(shared.workerCallbacks, e.exec)
	cancelRun()
	if err != nil {
		// Workers that aborted mid-tape still hold references to their
		// resident partitions; return that staged memory to the budget.
		it.states.abort()
		// Prefer the first real callback error over the executor's view:
		// sibling workers cancelled by it report a secondary "canceled"
		// error that would otherwise mask the cause.
		if first := shared.firstErr(); first != nil {
			err = first
		}
		return err
	}
	st := it.stats
	st.Loads, st.Unloads = result.Loads, result.Unloads
	st.PrefetchedLoads = result.PrefetchedLoads
	st.AsyncUnloads = result.AsyncUnloads
	st.MediumReads, st.Attaches = shared.loads[fromMedium].Load(), shared.loads[fromPeer].Load()
	st.StateBuilds = shared.loads[fromBuild].Load()
	st.StateWrites = e.iostats.Snapshot().Unloads - writesBefore
	st.ExecWorkers = len(perWorker)
	st.WorkerOps = make([]int64, len(perWorker))
	for w, r := range perWorker {
		st.WorkerOps[w] = r.Ops()
	}
	st.PrefetchedShardBytes = it.table.PrefetchedShardBytes()
	st.ShardReads = it.table.SpillReads()
	st.TuplesScored = shared.scored.Load()
	// The totals are the field-wise sum of perWorker by construction,
	// so this one check covers the whole worker breakdown: predicted
	// comes from independently simulating each segment's tape.
	if st.Loads != st.PredictedLoads || st.Unloads != st.PredictedUnloads {
		return fmt.Errorf("measured %d/%d load/unload ops, simulator predicted %d/%d",
			st.Loads, st.Unloads, st.PredictedLoads, st.PredictedUnloads)
	}

	// A COLLECT stream that dies mid-flight is not resumed (the client
	// contract — see Client.Collect); like any other failure in here it
	// fails the attempt.
	reads, builds, err := it.states.collect()
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	st.CollectReads = reads
	st.StateBuilds += builds
	it.next = next
	st.EdgeChanges = e.g.DiffEdges(next)
	return nil
}

// phaseUpdate is phase 5 and the commit: drain the queued profile
// updates, then swap in G(t+1) and apply P(t) → P(t+1) under the write
// side of the query boundary. Queries block only for that window and
// then observe the new epoch atomically: graph, profiles, and the epoch
// counter move together.
//
// An update for a user P(t) does not hold, or of an unknown kind, is
// dropped and counted before any update applies. No queue checks user
// ids, and both queues are drained by now, so failing here would lose
// the valid updates along with the bad one.
//
// The remote drain — the batches knnserve (or any store client) pushed
// since the last iteration — runs first: it is the one exchange that
// can fail, and failing before the local drain means an aborted
// iteration loses nothing queued locally. Both streams preserve
// per-user order; cross-stream order is unspecified, like any two
// concurrent EnqueueUpdate calls. DRAINUPD is at-most-once (a shard
// clears its queue as it answers, and the client never replays it
// blind), so a re-issued drain keeps what the answering shards handed
// over and asks again — they now answer empty.
func (e *Engine) phaseUpdate(ctx context.Context, it *iteration) error {
	var updates []profile.Update
	if e.netClient != nil {
		err := e.retryStore(ctx, func() error {
			drained, err := e.netClient.DrainUpdates()
			updates = append(updates, drained...)
			return err
		})
		if err != nil {
			return fmt.Errorf("drain remote updates: %w", err)
		}
	}
	updates = append(updates, e.updates.drain()...)

	return e.commit(it.next, e.dead, func() error {
		valid := updates[:0]
		for _, u := range updates {
			if int(u.User) < e.profiles.NumUsers() && u.Kind.Valid() {
				valid = append(valid, u)
			}
		}
		applied, err := e.profiles.Apply(valid)
		if err != nil {
			return err
		}
		it.stats.UpdatesApplied = applied
		it.stats.UpdatesDropped = len(updates) - len(valid)
		return nil
	})
}

// commit is the one commit window, Iterate's and ApplyDeltas's alike.
// Under the write side of the query boundary it runs write — the
// profile-store changes, the only step that can fail, and then nothing
// is committed — and swaps in the graph and the tombstone set and
// advances the epoch, so queries see graph, profiles, tombstones and
// epoch move together.
func (e *Engine) commit(g *graph.KNN, dead graph.NodeSet, write func() error) error {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	if err := write(); err != nil {
		return err
	}
	e.g, e.dead = g, dead
	e.epoch++
	return nil
}

// adoptPartitioning runs right after a commit: the iteration refreshed
// every partition from scratch, so the staleness clock resets and its
// partitioning becomes the one delta commits place users and republish
// views by. Delta-added users were partitioned for real by this phase
// 1, so their provisional slots retire.
func (e *Engine) adoptPartitioning(it *iteration) {
	e.lastAssign, e.lastParts = it.assign, it.parts
	live := make([]int, len(it.parts))
	for p, part := range it.parts {
		for _, u := range part.Members {
			if !e.dead.Has(u) {
				live[p]++
			}
		}
	}
	e.tracker.ResetFull(live, e.epoch)
	e.deltaAssign = make(map[uint32]int)
	e.deltaMembers = make(map[int][]uint32)
}

// servedMembers is partition p's served membership, the members its
// published serve view carries: the last full iteration's members plus
// the users delta commits placed there since.
func (e *Engine) servedMembers(p int) []uint32 {
	return slices.Concat(e.lastParts[p].Members, e.deltaMembers[p])
}

// publishMembers returns the members of each partition's serve view
// for a full commit that PUTs views one at a time in partition order
// 0..m−1. Partition p's view carries its new members next[p], plus every
// user of its published membership served[p] whose new partition
// partOf(u) comes after p: until that partition's view lands, p's view
// is the only published view holding the user, and dropping it would
// un-serve a live user for the rest of the publish. Such a user sits in
// two views once both land, each carrying the same committed entry,
// until the next commit: a delta commit could change the entry in only
// one of them, so it republishes every carrying view too (see
// deltaViews), and a full commit republishes every view anyway. served
// is nil before the first publish.
func publishMembers(next, served [][]uint32, partOf func(u uint32) int) [][]uint32 {
	members := make([][]uint32, len(next))
	for p := range next {
		members[p] = slices.Clip(next[p]) // appending copies, never writes into next[p]
		if p >= len(served) {
			continue
		}
		for _, u := range served[p] {
			if partOf(u) > p {
				members[p] = append(members[p], u)
			}
		}
	}
	return members
}

// servedView is one serve view a commit publishes: partition p's
// members, and whether some of them are copies carried for a later
// partition (see publishMembers).
type servedView struct {
	p       int
	members []uint32
	carries bool
}

// fullViews lists the serve views a full commit publishes: with
// PublishViews every partition's, in order 0..m−1, with the members
// publishMembers keeps served mid-publish. Read it before
// adoptPartitioning replaces the served membership.
func (e *Engine) fullViews(it *iteration) []servedView {
	if e.netClient == nil || !e.opts.PublishViews {
		return nil
	}
	var served [][]uint32
	if e.lastParts != nil {
		served = make([][]uint32, len(e.lastParts))
		for p := range e.lastParts {
			served[p] = e.servedMembers(p)
		}
	}
	next := make([][]uint32, len(it.parts))
	for p, part := range it.parts {
		next[p] = part.Members
	}
	partOf := func(u uint32) int { return int(it.assign.Of(u)) }
	views := make([]servedView, len(next))
	for p, members := range publishMembers(next, served, partOf) {
		views[p] = servedView{p: p, members: members, carries: len(members) > len(next[p])}
	}
	return views
}

// publish is the one post-commit publish, Iterate's and ApplyDeltas's
// alike: it PUTs the given serve views — final top-K lists and
// post-update profiles, what point lookups and replicas answer from —
// in order, then the staleness document (metadata only). A full commit
// PUTs with PutView, which stamps each view with the epoch this
// iteration's phase-1 base PUT opened; a delta commit with
// PutDeltaView, which bumps the partition's epoch first. It only reads
// committed state, and in Iterate runs before cleanup's deferred CLEAR,
// which preserves views. Each PUT installs the same view however often
// it lands, so a failed one is re-issued (a re-issued PutDeltaView may
// bump the epoch twice over identical content); a store that stays
// down past the budget is reported as ErrPublishFailed, and the views
// not yet PUT are marked for the next delta commit to republish.
func (e *Engine) publish(ctx context.Context, views []servedView, delta bool) error {
	if e.netClient == nil {
		return nil
	}
	put := e.netClient.PutView
	if delta {
		put = e.netClient.PutDeltaView
	}
	for i, v := range views {
		blob, err := e.encodeView(v.members)
		if err == nil {
			err = e.retryStore(ctx, func() error { return put(uint32(v.p), blob) })
		}
		if err != nil {
			// The views left unpublished lag the commit: the next delta
			// commit republishes them, not only the ones it touches.
			for _, rest := range views[i:] {
				e.republish[rest.p] = true
			}
			return &publishError{err: fmt.Errorf("publish serve view %d: %w", v.p, err)}
		}
		e.republish[v.p] = v.carries
	}
	if err := e.retryStore(ctx, e.publishStaleness); err != nil {
		return &publishError{err: fmt.Errorf("publish staleness: %w", err)}
	}
	return nil
}

// encodeView encodes the serve view of one partition's members from the
// committed graph and profiles: each live member's top-K list and
// profile, in member order.
func (e *Engine) encodeView(members []uint32) ([]byte, error) {
	entries := make([]netstore.ViewEntry, 0, len(members))
	for _, u := range members {
		if e.dead.Has(u) {
			continue // tombstoned users are not served
		}
		vec, err := e.profiles.Profile(u)
		if err != nil {
			return nil, fmt.Errorf("user %d: %w", u, err)
		}
		entries = append(entries, netstore.ViewEntry{
			User:      u,
			Neighbors: e.g.Neighbors(u),
			Profile:   vec.AppendBinary(nil),
		})
	}
	return netstore.EncodeView(entries), nil
}

// QueryNeighbors answers a point lookup for user u's committed top-K
// list, with the epoch it was committed at (0 before the first
// Iterate, when G is still the random seed graph). Safe to call
// concurrently with a running Iterate: mid-iteration reads return the
// last committed graph, never a partial result.
func (e *Engine) QueryNeighbors(u uint32) ([]uint32, uint64, error) {
	e.serveMu.RLock()
	defer e.serveMu.RUnlock()
	if int(u) >= e.g.NumNodes() {
		return nil, 0, fmt.Errorf("core: user %d out of range [0,%d)", u, e.g.NumNodes())
	}
	if e.dead.Has(u) {
		return nil, 0, fmt.Errorf("core: user %d is tombstoned", u)
	}
	return append([]uint32(nil), e.g.Neighbors(u)...), e.epoch, nil
}

// QueryProfile answers a point lookup for user u's committed profile
// P(t), with the epoch it was committed at. Like QueryNeighbors it is
// safe during an Iterate; updates enqueued but not yet applied by a
// phase 5 are not visible, per the paper's lazy-update contract.
func (e *Engine) QueryProfile(u uint32) (profile.Vector, uint64, error) {
	e.serveMu.RLock()
	defer e.serveMu.RUnlock()
	if e.dead.Has(u) {
		return profile.Vector{}, 0, fmt.Errorf("core: user %d is tombstoned", u)
	}
	vec, err := e.profiles.Profile(u)
	if err != nil {
		return profile.Vector{}, 0, err
	}
	return vec, e.epoch, nil
}

// Epoch reports the number of committed iterations — the stamp
// QueryNeighbors and QueryProfile results carry.
func (e *Engine) Epoch() uint64 {
	e.serveMu.RLock()
	defer e.serveMu.RUnlock()
	return e.epoch
}

// StoreAddrs reports the state-store shard addresses the engine uses
// (nil without a network store) — what an external knnserve dials for
// primary reads and update pushes.
func (e *Engine) StoreAddrs() []string {
	if e.netCluster != nil {
		return e.netCluster.Addrs()
	}
	return append([]string(nil), e.opts.NetStoreAddrs...)
}

// ReplicaAddrs reports the loopback read replicas' addresses (nil
// without NetStoreReplicas) — what knnserve dials for replica reads.
func (e *Engine) ReplicaAddrs() []string {
	if e.replicas == nil {
		return nil
	}
	return e.replicas.Addrs()
}

// dataScratch is where OnDisk is consulted: the scratch directory
// partition state and tuple spills go to, or nil to keep both in RAM
// (the engine may still own a scratch for the profile file alone).
func (e *Engine) dataScratch() *disk.Scratch {
	if e.opts.OnDisk {
		return e.scratch
	}
	return nil
}

// newPartStore decides where an iteration's partition state lives — the
// one choice between the two partStore implementations: behind the
// network store when the engine has one, otherwise in this process, on
// scratch files with OnDisk and in memory without.
func (e *Engine) newPartStore() partStore {
	if e.netClient != nil {
		return newNetOwner(e.netClient, e.budget, &e.iostats, e.opts.K)
	}
	return newPartOwner(e.opts.NumPartitions, e.dataScratch(), e.device, e.budget, &e.iostats, e.opts.K)
}

func (e *Engine) newTable(assign *partition.Assignment) *tuples.DiskTable {
	t := tuples.NewDiskTable(assign, e.dataScratch(), &e.iostats, e.opts.TupleBatch)
	t.SetDevice(e.device) // shard reads queue on the same emulated spindle
	return t
}

// phase4Shared carries the state one schedule execution shares across
// its tape workers: the partition store (which serializes
// same-partition store I/O and accumulator folds), the tuple table,
// and the run's failure signal. The first callback error cancels the
// run's context so sibling workers abort promptly instead of grinding
// their remaining tape; user cancellation arrives through the same
// context.
type phase4Shared struct {
	engine *Engine
	assign *partition.Assignment
	owner  partStore
	table  *tuples.DiskTable
	scored atomic.Int64
	// loads splits the tape loads by what each acquire cost.
	loads [numStateSources]atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	failMu sync.Mutex
	failed error
}

// fail records the run's first real error and cancels every sibling
// worker. It returns err unchanged so callers can `return s.fail(err)`.
func (s *phase4Shared) fail(err error) error {
	s.failMu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.failMu.Unlock()
	s.cancel()
	return err
}

// firstErr reports the first real callback error (nil if the failure
// came from elsewhere, e.g. option validation inside the executor).
func (s *phase4Shared) firstErr() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failed
}

// ctxErr surfaces run cancellation — by the user's context or by a
// sibling worker's failure — as a callback error.
func (s *phase4Shared) ctxErr() error {
	if err := s.ctx.Err(); err != nil {
		return s.fail(fmt.Errorf("canceled: %w", err))
	}
	return nil
}

// workerCallbacks builds the callback set of one tape worker — the
// factory ExecuteParallel calls once per worker before any of them
// start.
func (s *phase4Shared) workerCallbacks(index int) pigraph.Callbacks {
	w := &phase4Worker{
		shared:   s,
		index:    index,
		scorer:   knn.Scorer{Sim: s.engine.opts.Similarity, Workers: s.engine.opts.Workers},
		resident: make([]*partState, s.assign.NumPartitions()),
	}
	return pigraph.Callbacks{
		Pair:      w.pair,
		Self:      func(id uint32) error { return w.pair(id, id) },
		PairAhead: s.table.ShardAhead,
		Fetch:     w.fetch,
		Commit:    w.commit,
		Discard:   w.discard,
		Evict:     w.evict,
		Flush:     w.flush,
	}
}

// phase4Worker is one tape worker's executor state. The resident
// table (indexed by partition id, nil where not resident) and the
// shard's two resolved endpoints are confined to the worker's cursor
// (the scorer's goroutines only read ends while the cursor blocks in
// Score); everything cross-worker — partition instances, accumulator
// folds, the scored tally — goes through phase4Shared.
type phase4Worker struct {
	shared   *phase4Shared
	index    int // tape worker index, the lease owner's tenancy key
	scorer   knn.Scorer
	resident []*partState
	// ends are the resident states of the shard being scored, {a, b}
	// of pair(a, b); both are a's for a self shard.
	ends [2]*partState
}

// fetch materializes partition id without making it resident — the
// asynchronous half of a pipelined load. It may run concurrently with
// this worker's unloads of other partitions (never of id itself; the
// executor orders fetches after the matching write-back) and with
// anything other workers do — the partition store serializes
// same-partition store access across workers and shares the in-memory
// instance when another worker already holds id. The state's memory is
// charged to the budget at first acquire, so in-flight prefetches
// count against the bound; an abandoned prefetch is released through
// discard.
func (w *phase4Worker) fetch(id uint32) (any, error) {
	if err := w.shared.ctxErr(); err != nil {
		return nil, err
	}
	st, src, err := w.shared.owner.acquire(w.index, id)
	if err != nil {
		return nil, w.shared.fail(err)
	}
	w.shared.loads[src].Add(1)
	return st, nil
}

// commit makes a fetched partition resident in this worker — the
// synchronous half, run on the worker's cursor (the ownership
// reference was already taken in fetch). It checks, once per load,
// that the state's members are the assignment's: that is what lets
// every endpoint lookup index the state's arena by the assignment's
// ordinal with no per-endpoint check.
func (w *phase4Worker) commit(id uint32, data any) error {
	st, ok := data.(*partState)
	if !ok {
		return w.shared.fail(fmt.Errorf("core: commit of partition %d with unexpected payload %T", id, data))
	}
	if st.id != id || !slices.Equal(st.members, w.shared.assign.Members(id)) {
		return w.shared.fail(fmt.Errorf("core: state of partition %d does not hold the members phase 1 assigned it", id))
	}
	w.resident[id] = st
	return nil
}

// discard drops the ownership reference of a fetched partition the
// aborted execution will never commit — without a write-back, since
// the run's result is discarded.
func (w *phase4Worker) discard(id uint32, _ any) {
	_ = w.shared.owner.release(w.index, id, false)
}

// evict removes a resident partition from this worker without writing
// it back — the synchronous half of an asynchronous unload, run on the
// cursor at the unload's tape position. The ownership reference (and
// its budget charge) is held until the matching flush lands: an
// in-flight write-back still occupies real memory.
func (w *phase4Worker) evict(id uint32) (any, error) {
	st := w.residentState(id)
	if st == nil {
		return nil, w.shared.fail(fmt.Errorf("core: evict of non-resident partition %d", id))
	}
	w.resident[id] = nil
	return st, nil
}

// residentState returns partition id's state, or nil when this worker
// does not hold it.
func (w *phase4Worker) residentState(id uint32) *partState {
	if int(id) >= len(w.resident) {
		return nil
	}
	return w.resident[id]
}

// flush drops the evicted partition's ownership reference — the
// asynchronous half, run on the executor's write-back goroutines. The
// last worker to let go performs the real store write, carrying every
// worker's folds — or, after the partition's last planned load, emits
// its rows of G(t+1) in place of the write.
func (w *phase4Worker) flush(id uint32, _ any) error {
	if err := w.shared.owner.release(w.index, id, true); err != nil {
		return w.shared.fail(err)
	}
	return nil
}

// pair scores the one tuple shard of the unordered pair {a, b} —
// every candidate pair with one endpoint in each, read with one
// spill-file open — or partition a's self shard when a == b. No pair
// spans tape workers, so each shard is consumed exactly once; the
// table's ShardAhead, announced by the executor, has usually read it
// already. The two resident states are resolved here, once per shard,
// not once per endpoint.
func (w *phase4Worker) pair(a, b uint32) error {
	if err := w.shared.ctxErr(); err != nil {
		return err
	}
	ts, err := w.shared.table.Shard(a, b)
	if err != nil {
		return w.shared.fail(err)
	}
	if len(ts) == 0 {
		return nil
	}
	for i, id := range [2]uint32{a, b} {
		if w.ends[i] = w.residentState(id); w.ends[i] == nil {
			return w.shared.fail(fmt.Errorf("core: partition %d of shard {%d,%d} not resident", id, a, b))
		}
	}
	return w.scoreTuples(ts)
}

func (w *phase4Worker) scoreTuples(ts []tuples.Tuple) error {
	scores, err := w.scorer.Score(ts, w.lookup)
	if err != nil {
		return w.shared.fail(err)
	}
	// A tuple is one unordered pair, scored once and credited to both
	// endpoints: (D, score) into S's accumulator, (S, score) into D's.
	// Each shard end takes its partition's fold lock once and pushes
	// every orientation that lands in it — a self shard has one end,
	// which receives both. TopK pushes use a total order over
	// (score, id), so the fold result is identical no matter how the
	// workers' folds interleave. Score has already resolved every
	// endpoint through lookup, so each lies in one of the shard's ends.
	assign := w.shared.assign
	ends := w.ends[:]
	if ends[0] == ends[1] {
		ends = ends[:1]
	}
	for _, st := range ends {
		if err := w.shared.owner.fold(st.id, func() {
			for i, t := range ts {
				if assign.Of(t.S) == st.id {
					st.accs[assign.Ordinal(t.S)].Push(t.D, scores[i])
				}
				if assign.Of(t.D) == st.id {
					st.accs[assign.Ordinal(t.D)].Push(t.S, scores[i])
				}
			}
		}); err != nil {
			return w.shared.fail(err)
		}
	}
	w.shared.scored.Add(int64(len(ts)))
	return nil
}

// end returns the shard end that is partition pid, or nil when pid is
// neither.
func (w *phase4Worker) end(pid uint32) *partState {
	for _, st := range w.ends {
		if st.id == pid {
			return st
		}
	}
	return nil
}

// lookup resolves a tuple endpoint of the shard being scored by array
// indexing alone: the assignment's partition table picks one of the
// shard's two ends, and the assignment's ordinal indexes its arena —
// commit checked that the two agree on every member.
func (w *phase4Worker) lookup(u uint32) (profile.Vector, error) {
	pid := w.shared.assign.Of(u)
	st := w.end(pid)
	if st == nil {
		return profile.Vector{}, fmt.Errorf("core: user %d of partition %d is outside the shard {%d,%d}", u, pid, w.ends[0].id, w.ends[1].id)
	}
	return st.profiles.At(w.shared.assign.Ordinal(u)), nil
}
