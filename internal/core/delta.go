package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"knnpc/internal/api"
	"knnpc/internal/delta"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// Incremental graph maintenance: between full five-phase iterations the
// engine absorbs user adds and deletes through a cheap delta path.
// An added user gets its exact top-K among the live users, scored
// through a postings index of P(t) (profile.Index), and its chosen
// neighbors reconsider their lists with it by comparing the scores G(t)
// stores (internal/delta); deleted users are tombstoned — stripped
// immediately from the rows their in-lists (delta.InLists) name,
// filtered out of phase-2 tuple generation and the serve path
// afterwards. The index and the in-lists are kept between passes, so a
// pass costs its own mutations, not the population: each pass, and
// phase 5 for the index, applies its changes to them, and they are
// rebuilt only when they may have fallen behind (see passIndex and
// passInLists). A per-partition staleness
// counter accumulates the drift each delta commit causes, and Run
// schedules a real iteration only when the worst partition's normalized
// drift crosses Options.StalenessThreshold.
//
// Mutations are never silently lost: the store-side journals clear the
// moment they are drained, so every drained-but-uncommitted mutation is
// parked on the engine's backlog and retried by the next pass — whether
// it failed to apply or merely arrived ahead of its sequential id. All
// engine bookkeeping (staleness tracker, delta partition slots) is
// staged during a pass and lands only once the commit has, so a failed
// pass leaves no trace.

// ErrPublishFailed marks an Iterate or ApplyDeltas call whose commit
// landed — the graph, profiles, tombstones and epoch all advanced, and
// the stats are returned alongside the error — but whose post-commit
// publish of serve views or the staleness document failed. The work is
// done: do not run it again. The next successful commit republishes.
// Test with errors.Is(err, ErrPublishFailed).
var ErrPublishFailed = errors.New("core: committed but post-commit publish failed")

// publishError wraps a post-commit publish failure so callers can
// distinguish it from a failed commit via errors.Is(err,
// ErrPublishFailed) while keeping the underlying cause unwrappable.
type publishError struct{ err error }

func (p *publishError) Error() string        { return ErrPublishFailed.Error() + ": " + p.err.Error() }
func (p *publishError) Unwrap() error        { return p.err }
func (p *publishError) Is(target error) bool { return target == ErrPublishFailed }

// DeltaStats reports what one ApplyDeltas pass did.
type DeltaStats struct {
	// Adds is the number of new users appended to the graph (including
	// users whose add and delete landed in the same pass — they occupy
	// their id tombstoned, counting as one add and one delete).
	Adds int
	// Upserts is the number of existing users whose profile was
	// replaced and neighborhood re-inserted (including resurrections
	// of tombstoned users).
	Upserts int
	// Deletes is the number of users tombstoned.
	Deletes int
	// Held is the number of adds that arrived ahead of their
	// sequential id and are parked on the backlog until their
	// predecessors land; the next pass retries them.
	Held int
	// Malformed is the number of remote mutations dropped because
	// their payload did not decode; retrying cannot fix them.
	Malformed int
	// TouchedUsers counts existing users whose neighbor lists the
	// inserts' refine passes or the deletes' strips changed.
	TouchedUsers int
	// SimEvals is the pass's similarity-evaluation cost, one per
	// scored pair: each add's candidates (the users sharing an item
	// with it, or every live user when the measure cannot be indexed),
	// the refine steps of rows holding no scores (a refine of a scored
	// row compares, at no evaluation), and each upsert's rescoring of
	// the entries that name the user. Compare against the ~n·K·K of a
	// full iteration.
	SimEvals int
	// Republished is the number of partition serve views republished
	// after the commit.
	Republished int
}

// EnqueueAddUser defers adding (or upserting) user u with the given
// profile to the next ApplyDeltas pass. New users must take sequential
// ids — the first add's id is the current user count. Safe for
// concurrent use.
func (e *Engine) EnqueueAddUser(u uint32, vec profile.Vector) {
	e.deltas.put(delta.Mutation{Op: delta.Add, User: u, Profile: vec})
}

// EnqueueDelUser defers tombstoning user u to the next ApplyDeltas
// pass. Safe for concurrent use.
func (e *Engine) EnqueueDelUser(u uint32) {
	e.deltas.put(delta.Mutation{Op: delta.Delete, User: u})
}

// drainMutations collects this pass's work: the backlog parked by the
// previous pass (oldest first, so per-user order holds across passes),
// then mutations pushed to the store fleet by serving front ends
// (ADDUSER/DELUSER, drained in shard order — per-user order is
// preserved because a user's mutations all journal on the shard user
// mod N), then this process's own queue. Remote payloads that fail to
// decode are dropped and counted in stats.Malformed — the journaled
// bytes are immutable, so retrying cannot help. DRAINMUT is
// at-most-once, like phase 5's DRAINUPD, so a failed drain keeps what
// the answering shards handed over and retryStore asks again. If the
// drain stays down, the mutations drained so far (whose journals are
// already cleared) are parked on the backlog before returning, and the
// local queue is left queued.
func (e *Engine) drainMutations(ctx context.Context, stats *DeltaStats) ([]delta.Mutation, error) {
	muts := e.deltaBacklog
	e.deltaBacklog = nil
	if e.netClient != nil {
		err := e.retryStore(ctx, func() error {
			remote, err := e.netClient.DrainMutations()
			for _, m := range remote {
				switch m.Op {
				case netstore.MutAdd:
					vec, rest, derr := profile.DecodeVector(m.Profile)
					if derr != nil || len(rest) != 0 {
						stats.Malformed++
						continue
					}
					muts = append(muts, delta.Mutation{Op: delta.Add, User: m.User, Profile: vec})
				case netstore.MutDel:
					muts = append(muts, delta.Mutation{Op: delta.Delete, User: m.User})
				default:
					stats.Malformed++
				}
			}
			return err
		})
		if err != nil {
			e.deltaBacklog = muts
			return nil, fmt.Errorf("core: drain remote mutations: %w", err)
		}
	}
	return append(muts, e.deltas.drain()...), nil
}

// partitionOfUser maps a user to its partition in the last committed
// assignment, falling back to the delta assignment for users added
// since; -1 before the first full iteration or for unknown users.
func (e *Engine) partitionOfUser(u uint32) int {
	if e.lastAssign != nil && int(u) < e.lastAssign.NumNodes() {
		return int(e.lastAssign.Of(u))
	}
	if p, ok := e.deltaAssign[u]; ok {
		return p
	}
	return -1
}

// ApplyDeltas drains every queued mutation and folds it into the
// committed state: one commit window moves the grown graph, the
// extended profile store, the tombstone set, the staleness bookkeeping
// and the epoch together. With nothing queued it is a strict no-op —
// no commit, no epoch bump, no publishes — so delta-free runs are
// bit-identical to engines without the delta path. A pass in which
// nothing lands (every mutation held, malformed, or an idempotent
// miss) commits nothing either. On error the drained mutations are
// parked on the backlog and retried by the next pass; a post-commit
// publish failure returns non-nil stats plus an error satisfying
// errors.Is(err, ErrPublishFailed). The store exchanges — the remote
// drain and the publish — heal through Iterate's retry ladder. Not safe
// concurrently with Iterate; Run interleaves them correctly.
func (e *Engine) ApplyDeltas() (*DeltaStats, error) {
	return e.applyDeltas(context.Background())
}

// applyDeltas is ApplyDeltas under ctx, which bounds the retry
// ladder's waits.
func (e *Engine) applyDeltas(ctx context.Context) (*DeltaStats, error) {
	if e.closed {
		return nil, fmt.Errorf("core: engine is closed")
	}
	stats := &DeltaStats{}
	muts, err := e.drainMutations(ctx, stats)
	if err != nil {
		return nil, err
	}
	if len(muts) == 0 {
		return stats, nil
	}
	// fail parks every drained mutation for the next pass. Staging is
	// side-effect free, so re-applying the whole batch from scratch is
	// correct.
	fail := func(err error) (*DeltaStats, error) {
		e.deltaBacklog = muts
		return nil, err
	}
	ix, err := e.passIndex(muts)
	if err != nil {
		return fail(err)
	}
	in := e.passInLists()

	// Work on copies; the commit window swaps them in atomically. The
	// graph copy reuses the row table of the graph the last commit
	// replaced, which nothing else holds.
	g := e.g.CloneInto(e.spare)
	dead := e.dead.Clone()
	// overlay serves this pass's not-yet-committed profiles to the
	// inserter (new users and upserted vectors).
	overlay := make(map[uint32]profile.Vector)
	lookup := func(v uint32) (profile.Vector, error) {
		if vec, ok := overlay[v]; ok {
			return vec, nil
		}
		return e.profiles.Profile(v)
	}

	// Engine bookkeeping is staged here and replayed once the commit
	// lands, so an aborted pass mutates nothing.
	type assignOp struct {
		u uint32
		p int
	}
	type trackOp struct {
		del      bool
		p, edges int
	}
	var assignOps []assignOp
	var trackOps []trackOp
	staged := make(map[uint32]int) // partition slots staged this pass
	partOf := func(v uint32) int {
		if p, ok := staged[v]; ok {
			return p
		}
		return e.partitionOfUser(v)
	}

	cfg := delta.Config{
		K:     e.opts.K,
		Sim:   e.opts.Similarity,
		Dead:  func(v uint32) bool { return dead.Has(v) },
		Index: ix,
		In:    in,
	}

	var newVecs []profile.Vector               // appended users, in id order
	var upserts []profile.Update               // ReplaceProfile for existing users
	pending := make(map[uint32]profile.Vector) // adds that arrived ahead of their id
	pendingDead := make(map[uint32]bool)       // pending adds whose delete already arrived
	affected := make(map[int]bool)

	// insert places u with profile vec; indexed says u is a live user
	// whose current profile the index holds.
	insert := func(u uint32, vec profile.Vector, indexed bool) error {
		if ix != nil {
			if indexed {
				old, err := lookup(u)
				if err != nil {
					return err
				}
				ix.Remove(u, old)
			}
			ix.Add(u, vec)
		}
		overlay[u] = vec
		dead.Remove(u) // an add of a tombstoned user resurrects it
		res, err := delta.Insert(g, lookup, cfg, u, vec)
		if err != nil {
			return err
		}
		stats.SimEvals += res.SimEvals
		if indexed {
			// The rows that listed the user hold its old profile's
			// scores.
			evals, err := delta.RescoreListers(g, in, u, lookup, e.opts.Similarity)
			if err != nil {
				return err
			}
			stats.SimEvals += evals
		}
		stats.TouchedUsers += len(res.Touched)
		// The user's own partition when it has one (upsert or
		// resurrection — its committed view must republish to pick up
		// the new profile and neighbor list); otherwise the new user
		// joins the partition of its lowest-id accepted neighbor that
		// has one (Neighbors is sorted by id, not by score), partition 0
		// when none has.
		p := partOf(u)
		if p < 0 {
			p = 0
			for _, v := range res.Neighbors {
				if pv := partOf(v); pv >= 0 {
					p = pv
					break
				}
			}
			staged[u] = p
			assignOps = append(assignOps, assignOp{u: u, p: p})
		}
		trackOps = append(trackOps, trackOp{p: p, edges: len(res.Neighbors) + len(res.Touched)})
		affected[p] = true
		for _, v := range res.Touched {
			if pv := partOf(v); pv >= 0 {
				affected[pv] = true
			}
		}
		return nil
	}

	appendUser := func(u uint32, vec profile.Vector) error {
		g.Grow(1)
		newVecs = append(newVecs, vec)
		stats.Adds++
		if pendingDead[u] {
			// The add's delete already arrived: occupy the id — the
			// sequential space must stay contiguous — but tombstone it
			// immediately and skip the insertion work. No partition
			// ever contained the user, so no view changes.
			delete(pendingDead, u)
			overlay[u] = vec
			dead.Add(u)
			stats.Deletes++
			return nil
		}
		return insert(u, vec, false)
	}

	for i := 0; i < len(muts); i++ {
		m := muts[i]
		switch m.Op {
		case delta.Add:
			n := uint32(g.NumNodes())
			switch {
			case m.User < n:
				if err := insert(m.User, m.Profile, !dead.Has(m.User)); err != nil {
					return fail(fmt.Errorf("core: delta upsert user %d: %w", m.User, err))
				}
				if first := e.g.NumNodes(); int(m.User) >= first {
					// Appended earlier in this pass: not in the store yet.
					newVecs[int(m.User)-first] = m.Profile
				} else {
					upserts = append(upserts, profile.Update{
						User: m.User, Kind: profile.ReplaceProfile, Vector: m.Profile,
					})
				}
				stats.Upserts++
			case m.User == n:
				if err := appendUser(m.User, m.Profile); err != nil {
					return fail(fmt.Errorf("core: delta add user %d: %w", m.User, err))
				}
				// Drain any adds that arrived ahead of their id and are
				// now sequential.
				for {
					next := uint32(g.NumNodes())
					vec, ok := pending[next]
					if !ok {
						break
					}
					delete(pending, next)
					if err := appendUser(next, vec); err != nil {
						return fail(fmt.Errorf("core: delta add user %d: %w", next, err))
					}
				}
			default:
				// Ahead of the sequence (its predecessors are still in
				// flight on other shards); hold until they land. A
				// re-add overrides an earlier delete of the held id.
				pending[m.User] = m.Profile
				delete(pendingDead, m.User)
			}
		case delta.Delete:
			// A run of consecutive deletes is stripped in one scan of
			// the graph, with the touched list each delete would have
			// had on its own.
			var run []uint32
			for ; i < len(muts) && muts[i].Op == delta.Delete; i++ {
				u := muts[i].User
				if _, ok := pending[u]; ok {
					// The add has not landed yet. Cancelling it
					// outright would leave its id permanently
					// unoccupied — every later sequential add would
					// park behind the gap — so the add still applies
					// when its predecessors land, immediately
					// tombstoned.
					pendingDead[u] = true
					continue
				}
				if int(u) >= g.NumNodes() || dead.Has(u) {
					continue // unknown user (an idempotent miss) or already tombstoned
				}
				if ix != nil {
					old, err := lookup(u)
					if err != nil {
						return fail(fmt.Errorf("core: delta delete user %d: %w", u, err))
					}
					ix.Remove(u, old)
				}
				dead.Add(u)
				run = append(run, u)
			}
			i-- // the loop's own increment steps past the run
			touched, err := delta.RemoveRun(g, run, in)
			if err != nil {
				return fail(fmt.Errorf("core: delta delete users %v: %w", run, err))
			}
			for j, u := range run {
				stats.Deletes++
				stats.TouchedUsers += len(touched[j])
				p := partOf(u)
				trackOps = append(trackOps, trackOp{del: true, p: p, edges: len(touched[j])})
				if p >= 0 {
					affected[p] = true
				}
				for _, v := range touched[j] {
					if pv := partOf(v); pv >= 0 {
						affected[pv] = true
					}
				}
			}
		default:
			return fail(fmt.Errorf("core: unknown delta op %d", m.Op))
		}
	}

	// Adds still ahead of the sequence park on the backlog — with their
	// pending tombstones, preserving per-user order — and retry next
	// pass, once the in-flight predecessors land.
	var held []delta.Mutation
	if len(pending) > 0 {
		ids := make([]uint32, 0, len(pending))
		for u := range pending {
			ids = append(ids, u)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, u := range ids {
			held = append(held, delta.Mutation{Op: delta.Add, User: u, Profile: pending[u]})
			if pendingDead[u] {
				held = append(held, delta.Mutation{Op: delta.Delete, User: u})
			}
		}
		stats.Held = len(ids)
	}
	if stats.Adds == 0 && stats.Upserts == 0 && stats.Deletes == 0 {
		// Nothing landed: no commit, no epoch bump, no publishes. No
		// insert or strip ran, so the index and the in-lists still
		// describe the committed state.
		e.deltaBacklog = held
		e.indexFresh, e.inFresh = ix != nil, true
		return stats, nil
	}

	// Commit window: upserts, profile growth, graph swap, tombstones and
	// the epoch move together under the query boundary, through the same
	// commit as Iterate's phase 5. The two store steps can fail, and fail
	// parks the whole batch to be staged again — so the repeatable one
	// (replacing a profile twice is replacing it once) goes first and
	// Extend, which must happen exactly once, goes last: whichever fails,
	// the store still has the user count the parked batch was staged
	// against.
	err = e.commit(g, dead, func() error {
		if len(upserts) > 0 {
			if _, err := e.profiles.Apply(upserts); err != nil {
				return fmt.Errorf("core: apply delta upserts: %w", err)
			}
		}
		if err := e.profiles.Extend(newVecs); err != nil {
			return fmt.Errorf("core: extend profiles: %w", err)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	// The index and the in-lists followed every insert and strip of the
	// pass, so they describe what it committed.
	e.indexFresh, e.inFresh = ix != nil, true
	for _, op := range assignOps {
		e.deltaAssign[op.u] = op.p
		e.deltaMembers[op.p] = append(e.deltaMembers[op.p], op.u)
	}
	for _, op := range trackOps {
		if op.del {
			e.tracker.RecordDelete(op.p, op.edges)
		} else {
			e.tracker.RecordAdd(op.p, op.edges)
		}
	}
	e.deltaBacklog = held

	// From here on the commit is durable: failures wrap ErrPublishFailed
	// and do NOT requeue the mutations.
	views := e.deltaViews(affected)
	if err := e.publish(ctx, views, true); err != nil {
		return stats, err
	}
	stats.Republished = len(views)
	return stats, nil
}

// passIndex returns the postings this pass's adds score through: the
// engine's index, which holds every live committed profile and covers
// every item one of them holds, extended to cover the items of the
// pass's adds and upserts. It is built from P(t) only when it is not
// known to be current — at the first pass, and after anything that
// changed profiles or tombstones without keeping it so (a failed pass
// or commit, SetGraph); otherwise the pass and phase 5 keep it current
// in proportion to their own mutations. It is nil, and inserts score
// every live user instead, when the measure cannot be indexed. It
// counts as stale until this pass commits.
func (e *Engine) passIndex(muts []delta.Mutation) (*profile.Index, error) {
	if e.index == nil {
		ix, ok := profile.NewIndex(e.opts.Similarity)
		if !ok {
			return nil, nil
		}
		e.index = ix
	}
	if !e.indexFresh {
		err := e.index.Build(e.g.NumNodes(), func(u uint32) (profile.Vector, bool, error) {
			if e.dead.Has(u) {
				return profile.Vector{}, false, nil
			}
			v, err := e.profiles.Profile(u)
			return v, true, err
		})
		if err != nil {
			return nil, fmt.Errorf("core: index profiles: %w", err)
		}
	}
	e.indexFresh = false
	for _, m := range muts {
		if m.Op == delta.Add {
			e.index.Cover(m.Profile)
		}
	}
	return e.index, nil
}

// passInLists returns the in-lists this pass's strips and upsert
// rescores visit: a superset, for each user, of the rows of G(t) that
// list it. They are built from G(t) at the first pass after a full
// iteration, a failed pass or SetGraph, and again once the entries
// inserts appended to them outnumber G(t)'s edge bound; otherwise the
// last pass's are used as it left them. They count as stale until this
// pass commits.
func (e *Engine) passInLists() *delta.InLists {
	if !e.inFresh || e.in.Added() > e.opts.K*e.g.NumNodes() {
		e.in.Build(e.g)
	}
	e.inFresh = false
	return &e.in
}

// deltaViews lists the serve views a delta commit republishes, in
// ascending partition order, each with its served membership: the
// affected partitions, and the ones marked for republish — a view that
// still carries a moved user's copy from the last full publish (this
// commit may change that user's entry, and the stale copy must not
// outlive it), or one a failed publish never PUT. Before the first full
// iteration there are no views to patch.
func (e *Engine) deltaViews(affected map[int]bool) []servedView {
	if e.netClient == nil || !e.opts.PublishViews || e.lastParts == nil {
		return nil
	}
	var views []servedView
	for p := range e.lastParts {
		if affected[p] || e.republish[p] {
			views = append(views, servedView{p: p, members: e.servedMembers(p)})
		}
	}
	return views
}

// publishStaleness pushes the engine's staleness document to the store
// (shard 0 broadcast; GET /v1/staleness serves it). The PUT is
// metadata-only — no device charge — so publishing never perturbs the
// I/O accounting.
func (e *Engine) publishStaleness() error {
	return e.netClient.PutStaleness(netstore.EncodeStaleness(e.stalenessDoc()))
}

// stalenessDoc assembles the current per-partition drift table.
func (e *Engine) stalenessDoc() api.StalenessResponse {
	snap := e.tracker.Snapshot()
	doc := api.StalenessResponse{
		LastFullEpoch: e.tracker.LastFullEpoch(),
		Threshold:     e.opts.StalenessThreshold,
		Users:         uint64(e.g.NumNodes()),
		Partitions:    make([]api.PartitionStaleness, 0, len(snap)),
	}
	for p, c := range snap {
		doc.Partitions = append(doc.Partitions, api.PartitionStaleness{
			Partition:    uint32(p),
			Adds:         c.Adds,
			Deletes:      c.Deletes,
			TouchedEdges: c.TouchedEdges,
			Members:      c.Members,
			Score:        e.tracker.Score(p),
		})
	}
	return doc
}

// Staleness reports the engine's current staleness document — the same
// table publishStaleness pushes to the store.
func (e *Engine) Staleness() api.StalenessResponse { return e.stalenessDoc() }

// MaxStaleness reports the worst partition's normalized drift since
// the last full iteration.
func (e *Engine) MaxStaleness() float64 { return e.tracker.MaxScore() }

// NeedsIteration reports whether Run's next pass should schedule a
// full five-phase iteration: always with delta scheduling disabled
// (threshold 0) or before the first iteration, otherwise only once
// some partition's drift reaches the threshold.
func (e *Engine) NeedsIteration() bool {
	if e.opts.StalenessThreshold <= 0 || e.iter == 0 {
		return true
	}
	return e.tracker.MaxScore() >= e.opts.StalenessThreshold
}
