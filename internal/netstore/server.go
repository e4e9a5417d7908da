package netstore

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"knnpc/internal/disk"
	"knnpc/internal/pigraph"
)

// ErrStaleLease is the fencing failure: a write-back carried a token
// that is not live — it was released, revoked by a new base PUT (a new
// phase-1 epoch), or never granted. The stale worker's partial is
// rejected, so it cannot clobber the current epoch's state.
var ErrStaleLease = errors.New("netstore: stale lease token")

// ErrNotServed reports a point lookup for a user that no serve view on
// the queried shard contains — either the user lives on another shard,
// or no view has been published yet. The serving tier treats it as a
// routing miss, not a failure: try the next shard.
var ErrNotServed = errors.New("netstore: user not in any served view")

// serveView is one partition's committed read state: the view blob as
// published, the epoch it was stamped with, and the per-user decode the
// point lookups answer from.
type serveView struct {
	epoch uint64
	blob  []byte
	index map[uint32]ViewEntry
}

// newServeView decodes a view blob and indexes it by user. The blob is
// kept, not copied: entries alias it.
func newServeView(epoch uint64, blob []byte) (serveView, error) {
	entries, err := DecodeView(blob)
	if err != nil {
		return serveView{}, err
	}
	index := make(map[uint32]ViewEntry, len(entries))
	for _, e := range entries {
		index[e.User] = e
	}
	return serveView{epoch: epoch, blob: blob, index: index}, nil
}

// viewSet is a shard's serve views and the index that routes each
// member to the view holding it — the read state a primary serves from
// and a replica caches. Its owner's mutex guards it.
type viewSet struct {
	views   map[uint32]serveView
	userIdx map[uint32]uint32 // view member → owning partition
}

func newViewSet() viewSet {
	return viewSet{views: make(map[uint32]serveView), userIdx: make(map[uint32]uint32)}
}

// setView makes v partition p's view. A user held by several views
// routes to the highest-numbered one, and a user no view holds has no
// route, so the index depends only on which views are installed and
// not on their install order: a live shard and its journal replay (or
// compaction, which installs views in partition order) route alike.
func (vs viewSet) setView(p uint32, v serveView) {
	old := vs.views[p]
	vs.views[p] = v
	for u := range old.index {
		if _, kept := v.index[u]; !kept && vs.userIdx[u] == p {
			vs.reroute(u)
		}
	}
	for u := range v.index {
		if q, ok := vs.userIdx[u]; !ok || q < p {
			vs.userIdx[u] = p
		}
	}
}

// reroute points u at the highest-numbered view still holding it, or
// drops its route when none does.
func (vs viewSet) reroute(u uint32) {
	delete(vs.userIdx, u)
	for q, v := range vs.views {
		if _, held := v.index[u]; !held {
			continue
		}
		if cur, ok := vs.userIdx[u]; !ok || q > cur {
			vs.userIdx[u] = q
		}
	}
}

// entry resolves user u through the index: the epoch of the view that
// holds u and u's entry in it.
func (vs viewSet) entry(u uint32) (uint64, ViewEntry, bool) {
	p, ok := vs.userIdx[u]
	if !ok {
		return 0, ViewEntry{}, false
	}
	v := vs.views[p]
	e, ok := v.index[u]
	return v.epoch, e, ok
}

// ServerConfig describes one state-store shard.
type ServerConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// loopback port).
	Addr string
	// Shard and Shards place this server in the cluster: it owns the
	// contiguous partition range pigraph.ShardRouter assigns to shard
	// index Shard of Shards.
	Shard, Shards int
	// NumPartitions is the engine's partition count m (the id space the
	// router divides).
	NumPartitions int
	// Device, when non-nil, is this shard's emulated spindle: every
	// GET/PUT/COLLECT blob access queues for it and sleeps the model's
	// time, serialized per shard — N shards emulate N independent
	// devices. Nil adds no latency.
	Device *disk.Device
	// DataDir, when non-empty, makes the shard durable: every mutating
	// verb's request frame is appended to DataDir/journal before the verb
	// applies, the journal is compacted — rewritten as the frames that
	// rebuild the current state, then renamed over itself — at each
	// commit (staleness publish) or after 4 MiB of appends, and a
	// restarting shard replays it back to its pre-crash state. Leases are
	// volatile on purpose — a restart revokes them all, which is what
	// fences the pre-crash workers (see docs/PROTOCOL.md, "Journal
	// format").
	DataDir string
	// WrapListener, when non-nil, wraps the shard's TCP listener before
	// serving starts — the seam internal/fault's injecting listener
	// plugs into without this package importing it.
	WrapListener func(net.Listener) net.Listener
}

// Server is one state-store shard: a partition-range-validated blob map
// with lease bookkeeping, serving the netstore protocol on a TCP
// listener. Its state lives in memory. With a DataDir, every mutating
// verb is journaled before it applies and a restart replays the journal
// (durable.go); the emulated Device is the cost model every verb is
// charged against, not where the bytes live.
type Server struct {
	*frameListener
	placement
	cfg ServerConfig

	mu sync.Mutex
	// partials are keyed by the lease token that admitted them: a
	// client retrying a PUT whose response was lost overwrites its own
	// first copy instead of appending a duplicate — the property that
	// makes write-back replay safe, because TopK's collect-time merge
	// does not deduplicate.
	base       map[uint32][]byte
	partials   map[uint32]map[uint64][]byte
	leases     map[uint32]map[uint64]struct{}
	epochs     map[uint32]uint64   // bumped by every base PUT; survives CLEAR
	viewSet                        // committed serve views; survive CLEAR
	updates    [][]byte            // pending PUSHUPD batches; survive CLEAR
	mutations  [][]byte            // pending ADDUSER/DELUSER batches; survive CLEAR
	tombstones map[uint32]struct{} // DELUSER'd users; lookups miss; survives CLEAR
	staleness  []byte              // last putStale document; survives CLEAR
	nextToken  uint64
	durable    *durableStore // nil without DataDir; guarded by mu for appends
	watchers   []*watcher    // WATCH subscribers, in subscribe order
	closed     bool
}

// watcher is one WATCH subscriber: a bounded queue of views to ship,
// drained by the subscriber's own connection goroutine, and the signal
// that the primary has dropped it. Both are created, filled and cut
// only under Server.mu.
type watcher struct {
	queue chan shipped
	cut   chan struct{}
}

// NewServer binds the shard's listener and starts serving in the
// background. The returned server is ready the moment this returns —
// Addr reports the bound address.
func NewServer(cfg ServerConfig) (*Server, error) {
	s, err := newShard(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		// Recover BEFORE binding the listener: no request is served
		// until the pre-crash state is fully back, and recovery ends by
		// revoking every lease — the restart itself fences workers that
		// held tokens across the crash.
		if err := s.recover(cfg.DataDir); err != nil {
			return nil, fmt.Errorf("netstore: shard %d recover from %s: %w", cfg.Shard, cfg.DataDir, err)
		}
	}
	if s.frameListener, err = listenFrames(cfg.Addr, cfg.WrapListener); err != nil {
		if s.durable != nil {
			s.durable.close()
		}
		return nil, err
	}
	s.serve(s.handle)
	return s, nil
}

// newShard places an empty shard in its cluster, without a listener or
// a journal.
func newShard(cfg ServerConfig) (*Server, error) {
	pl, err := place(cfg.NumPartitions, cfg.Shards, cfg.Shard)
	if err != nil {
		return nil, err
	}
	s := &Server{
		placement:  pl,
		cfg:        cfg,
		base:       make(map[uint32][]byte),
		partials:   make(map[uint32]map[uint64][]byte),
		leases:     make(map[uint32]map[uint64]struct{}),
		epochs:     make(map[uint32]uint64),
		viewSet:    newViewSet(),
		tombstones: make(map[uint32]struct{}),
	}
	return s, nil
}

// placement is a store node's place in its cluster: shard index shard
// of shards, owning the contiguous partition range [lo, hi) that
// pigraph.ShardRouter assigns it. A replica sits where its primary does.
type placement struct {
	shard, shards int
	lo, hi        int
}

// place validates a node's shard index and derives its range.
func place(numPartitions, shards, shard int) (placement, error) {
	router, err := pigraph.NewShardRouter(numPartitions, max(shards, 1))
	if err != nil {
		return placement{}, fmt.Errorf("netstore: %w", err)
	}
	if shard < 0 || shard >= router.NumShards() {
		return placement{}, fmt.Errorf("netstore: shard index %d out of range [0,%d)", shard, router.NumShards())
	}
	lo, hi := router.Range(shard)
	return placement{shard: shard, shards: router.NumShards(), lo: lo, hi: hi}, nil
}

// Range reports the contiguous partition range [lo, hi) the node owns.
func (pl placement) Range() (lo, hi int) { return pl.lo, pl.hi }

// checkRange validates shard ownership — the router is the only
// directory; a misrouted request is a client bug surfaced loudly.
func (pl placement) checkRange(p uint32) error {
	if int(p) < pl.lo || int(p) >= pl.hi {
		return fmt.Errorf("netstore: partition %d outside shard %d/%d range [%d,%d)", p, pl.shard, pl.shards, pl.lo, pl.hi)
	}
	return nil
}

// Device reports the shard's emulated spindle (nil without emulation).
func (s *Server) Device() *disk.Device { return s.cfg.Device }

// Close stops the listener, tears down live connections, and waits for
// every handler to return.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, w := range s.watchers {
		close(w.cut)
	}
	s.watchers = nil
	s.mu.Unlock()
	err := s.frameListener.close()
	if s.durable != nil {
		s.durable.close()
	}
	return err
}

// handle answers one parsed request (see handleFunc). The read verbs
// are answered by answerRead, which a Replica shares; every other verb
// is answered from the shard's own state.
func (s *Server) handle(c command, conn net.Conn) ([]byte, error) {
	switch c.op {
	case opEpoch, opGetView, opNeighbors, opProfile:
		return answerRead(s, &c)

	case opGet:
		return s.get(c.p)

	case opPut, opLease, opRelease, opClear, opPushUpd, opDrainUpd, opAddUser, opDelUser, opDrainMut:
		return s.mutate(&c)

	case opCollect:
		items, err := s.collect()
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			if err := writeFrame(conn, encodeCollectItem(it)); err != nil {
				return nil, hangUp(err)
			}
		}
		if err := writeFrame(conn, []byte{statusEnd}); err != nil {
			return nil, hangUp(err)
		}
		return nil, errReplied

	case opWatch:
		return nil, s.watch(conn)

	case opStaleness:
		s.mu.Lock()
		blob := s.staleness
		s.mu.Unlock()
		return blob, nil

	default:
		return nil, hangUp(fmt.Errorf("netstore: opcode 0x%02x is not a verb", c.op))
	}
}

// readState is what the read verbs answer from: a primary's own serve
// views, or a replica's cache of its primary's. Each node keeps its own
// semantics behind these three methods — device charges on a primary;
// the forwarded epoch probe, refresh and degraded mode on a replica.
type readState interface {
	epoch(p uint32) (base, view uint64, err error)
	getView(p uint32) (epoch uint64, blob []byte, err error)
	lookup(u uint32) (epoch uint64, entry ViewEntry, err error)
}

// answerRead answers one parsed read verb — EPOCH, GETVIEW, NEIGHBORS or
// PROFILE — from st: the one handler primaries and replicas share.
func answerRead(st readState, c *command) ([]byte, error) {
	switch c.op {
	case opEpoch:
		base, view, err := st.epoch(c.p)
		if err != nil {
			return nil, err
		}
		return encodeEpoch(base, view), nil
	case opGetView:
		epoch, blob, err := st.getView(c.p)
		if err != nil {
			return nil, err
		}
		return appendStamped(epoch, blob), nil
	case opNeighbors, opProfile:
		epoch, entry, err := st.lookup(c.user)
		if err != nil {
			return nil, err
		}
		return encodeLookup(c.op, epoch, entry), nil
	default:
		return nil, hangUp(fmt.Errorf("netstore: opcode 0x%02x is not a read verb", c.op))
	}
}

// ownsUser reports whether this shard is user u's mutation owner, by
// the userShard rule PUSHUPD routes by.
// ADDUSER/DELUSER broadcast to every shard (tombstones must be globally
// visible so point lookups miss immediately on whichever shard holds
// the user's view), but only the owning shard queues the mutation, so
// the engine's drain sees each mutation exactly once.
func (s *Server) ownsUser(u uint32) bool {
	return userShard(u, s.shards) == s.shard
}

// prepare derives what apply needs but should not compute under s.mu —
// a view's decode, a mutation's batch — and refuses a PUT kind no verb
// defines. Live requests and replay both run it.
func (c *command) prepare() error {
	switch {
	case c.op == opPut:
		switch c.kind {
		case putView, putDeltaView:
			// The epoch stamp is set at apply.
			view, err := newServeView(0, c.blob)
			if err != nil {
				return fmt.Errorf("netstore: view of partition %d: %w", c.p, err)
			}
			c.view = view
		case putBase, putPartial, putStale:
		default:
			return fmt.Errorf("netstore: unknown PUT kind 0x%02x", c.kind)
		}
	case c.op == opAddUser:
		c.batch = EncodeMutations([]Mutation{{Op: MutAdd, User: c.user, Profile: c.blob}})
	case c.op == opDelUser:
		c.batch = EncodeMutations([]Mutation{{Op: MutDel, User: c.user}})
	}
	return nil
}

// mutate runs one parsed live mutating request: validate → journal →
// apply → charge the device. Nothing reaches memory before its record
// reaches the journal, so a verb whose append fails leaves the shard
// exactly as its log says it is.
func (s *Server) mutate(c *command) ([]byte, error) {
	if err := s.admit(c); err != nil {
		return nil, err
	}
	s.mu.Lock()
	err := s.checkLocked(c)
	if err == nil {
		err = s.journalLocked(c)
	}
	var drained [][]byte
	if err == nil {
		drained = s.applyLocked(c)
		if c.op == opPut && c.kind == putStale {
			// A staleness publish is the engine's per-iteration commit
			// marker. Its record is journaled and applied, so a failed
			// compaction leaves the old journal whole, and the caller's
			// retry replaces the document with itself.
			err = s.compactLocked()
		}
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.finish(c, drained), nil
}

// admit is the validation of a live command that reads no shard state:
// the range check, the fault gate, the update batch's decode, and
// prepare. The gate fires before anything mutates, which is what makes
// statusRetry's promise structurally true.
func (s *Server) admit(c *command) error {
	switch {
	case c.op == opPut || c.op == opLease || c.op == opRelease:
		if err := s.checkRange(c.p); err != nil {
			return err
		}
	case c.op == opPushUpd:
		// A corrupt batch fails its sender, not the draining engine.
		if _, err := DecodeUpdates(c.blob); err != nil {
			return err
		}
	}
	if c.op == opPut {
		switch c.kind {
		case putBase:
			if err := s.faultGate(disk.AccessWrite, int64(len(c.blob))); err != nil {
				return err
			}
		case putPartial, putView, putDeltaView:
			if err := s.faultGate(disk.AccessAppend, int64(len(c.blob))); err != nil {
				return err
			}
		case putStale:
			// Pure metadata, never charged to the device — so no injected
			// device fault either; prepare refuses an unknown kind.
		}
	}
	return c.prepare()
}

// checkLocked is the validation of a live command against shard state;
// caller holds s.mu. A partial PUT or a RELEASE must carry a live lease
// token, and a LEASE needs stored state and is granted the next token
// here, before apply, so its record can carry it.
func (s *Server) checkLocked(c *command) error {
	switch {
	case c.op == opPut && c.kind == putPartial, c.op == opRelease:
		if _, live := s.leases[c.p][c.token]; !live {
			return fmt.Errorf("%w: partition %d token %d", ErrStaleLease, c.p, c.token)
		}
	case c.op == opLease:
		if _, ok := s.base[c.p]; !ok {
			return fmt.Errorf("netstore: lease of partition %d with no stored state", c.p)
		}
		c.token = s.nextToken + 1
	}
	return nil
}

// applyLocked is a mutating verb's one state transition, shared by live
// requests and replay; caller holds s.mu. It cannot fail — parse,
// prepare and a live request's validation have refused anything it
// could not apply — and it is the only writer of the shard's durable
// maps. A drain returns the batches it took.
func (s *Server) applyLocked(c *command) (drained [][]byte) {
	switch c.op {
	case opPut:
		switch c.kind {
		case putBase:
			// A base PUT opens a new epoch for the partition: partials from
			// the previous iteration are dropped, every outstanding lease
			// is revoked — so a zombie worker's later write-back fails the
			// fencing check instead of contaminating the fresh state — and
			// the partition's epoch counter advances, which is what lets
			// read replicas detect that their cached view is stale.
			s.base[c.p] = c.blob
			delete(s.partials, c.p)
			delete(s.leases, c.p)
			s.epochs[c.p]++
		case putPartial:
			if s.partials[c.p] == nil {
				s.partials[c.p] = make(map[uint64][]byte)
			}
			s.partials[c.p][c.token] = c.blob
		case putView:
			// The committed serve view, stamped with the partition's current
			// epoch (the one the publishing iteration's base PUT opened).
			// Installed atomically — a point lookup sees the old complete
			// view or the new complete view, never a mix.
			c.view.epoch = s.epochs[c.p]
			s.installViewLocked(c.p, c.view)
		case putDeltaView:
			// A delta republish: no base install opened a new epoch, so the
			// PUT itself bumps the counter and stamps the view with the new
			// value — the moved stamp a replica's read probe compares.
			// Compute state (base, partials, leases) is untouched.
			s.epochs[c.p]++
			c.view.epoch = s.epochs[c.p]
			s.installViewLocked(c.p, c.view)
		case putStale:
			s.staleness = c.blob
		default:
			panic("netstore: apply of an unprepared PUT kind")
		}
	case opLease:
		// Replay re-grants the lease too; recovery revokes every lease
		// afterwards, so what survives is nextToken — a restarted shard
		// never re-grants a pre-crash token.
		s.nextToken = max(s.nextToken, c.token)
		if s.leases[c.p] == nil {
			s.leases[c.p] = make(map[uint64]struct{})
		}
		s.leases[c.p][c.token] = struct{}{}
	case opRelease:
		delete(s.leases[c.p], c.token)
	case recEpoch:
		s.epochs[c.p] = c.epoch
	case opClear:
		clear(s.base)
		clear(s.partials)
		clear(s.leases)
	case opPushUpd:
		s.updates = append(s.updates, c.blob)
	case opAddUser:
		// A re-add resurrects a tombstoned id.
		delete(s.tombstones, c.user)
		if s.ownsUser(c.user) {
			s.mutations = append(s.mutations, c.batch)
		}
	case opDelUser:
		s.tombstones[c.user] = struct{}{}
		if s.ownsUser(c.user) {
			s.mutations = append(s.mutations, c.batch)
		}
	case opDrainUpd:
		drained, s.updates = s.updates, nil
	case opDrainMut:
		drained, s.mutations = s.mutations, nil
	default:
		panic(fmt.Sprintf("netstore: apply of opcode 0x%02x", c.op))
	}
	return drained
}

// finish charges a live command's device time and builds its response.
// It runs outside s.mu: the device serializes itself, and holding the
// mutex through a modeled sleep would block other partitions'
// bookkeeping.
func (s *Server) finish(c *command, drained [][]byte) []byte {
	switch c.op {
	case opPut:
		// A base PUT installs a partition's state wherever it lives — a
		// random write. A partial — and a view publish — is a blind append
		// to the shard's journal (the log-structured write path collect's
		// per-partition read model assumes), so it pays sequential transfer
		// with no seek. A staleness publish is pure metadata, like EPOCH.
		switch c.kind {
		case putBase:
			s.cfg.Device.Write(int64(len(c.blob)))
		case putPartial, putView, putDeltaView:
			s.cfg.Device.Append(int64(len(c.blob)))
		case putStale:
		}
		return nil
	case opLease:
		return appendU64(nil, c.token)
	case opPushUpd:
		s.cfg.Device.Append(int64(len(c.blob)))
		return nil
	case opAddUser, opDelUser:
		if s.ownsUser(c.user) {
			s.cfg.Device.Append(int64(len(c.batch)))
		}
		return nil
	case opDrainUpd, opDrainMut:
		// The queue hands out its batches as one sequential read of the
		// drained volume.
		var volume int64
		for _, b := range drained {
			volume += int64(len(b))
		}
		if volume > 0 {
			s.cfg.Device.Read(volume)
		}
		return encodeDrained(drained)
	default:
		return nil // RELEASE and CLEAR touch no device and answer nothing
	}
}

// faultGate consults the shard's device fault hook before an op reads
// or mutates state. A gated failure maps onto ErrRetryable — and
// because the gate fires before any mutation, the retry promise the
// status byte makes is structurally true.
func (s *Server) faultGate(kind disk.AccessKind, n int64) error {
	if err := s.cfg.Device.Fault(kind, n); err != nil {
		return fmt.Errorf("%w: %v", ErrRetryable, err)
	}
	return nil
}

func (s *Server) get(p uint32) ([]byte, error) {
	if err := s.checkRange(p); err != nil {
		return nil, err
	}
	if err := s.faultGate(disk.AccessRead, 0); err != nil {
		return nil, err
	}
	s.mu.Lock()
	blob, okB := s.base[p]
	s.mu.Unlock()
	if !okB {
		return nil, fmt.Errorf("netstore: partition %d has no stored state", p)
	}
	// The spindle is charged outside the state mutex: the device
	// serializes itself, and holding s.mu through a modeled sleep would
	// needlessly block lease bookkeeping of other partitions.
	s.cfg.Device.Read(int64(len(blob)))
	return blob, nil
}

// installViewLocked makes v partition p's serve view and ships it to
// every watcher. Shipping under the same s.mu hold as the install makes
// each watcher's stream order the install order, so a replica that
// sees a view epoch on EPOCH knows the frame carrying it is already
// queued. The immutable stored blob is enqueued as is — no copy, no
// device read. A watcher whose queue is full is cut off: a slow
// replica costs itself a re-subscribe, never the primary a blocked PUT.
func (s *Server) installViewLocked(p uint32, v serveView) {
	s.setView(p, v)
	kept := s.watchers[:0]
	for _, w := range s.watchers {
		select {
		case w.queue <- shipped{partition: p, epoch: v.epoch, blob: v.blob}:
			kept = append(kept, w)
		default:
			close(w.cut)
		}
	}
	clear(s.watchers[len(kept):])
	s.watchers = kept
}

// watch serves one WATCH subscription on the subscriber's connection
// until the primary cuts it off or the connection fails: every current
// view in partition order, then every view a later PUT installs, with a
// heartbeat after watchHeartbeat of silence. The queue holds a full
// snapshot plus a full commit's worth of views, so a subscriber that
// keeps up is never cut. It always ends by hanging up — the stream has
// no terminator — and a restarted primary's subscribers re-subscribe
// and get a fresh snapshot; journal replay ships nothing.
func (s *Server) watch(conn net.Conn) error {
	w := &watcher{
		queue: make(chan shipped, 2*(s.hi-s.lo)+16),
		cut:   make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return hangUp(fmt.Errorf("netstore: shard %d is closing", s.cfg.Shard))
	}
	for p := uint32(s.lo); int(p) < s.hi; p++ {
		if v, ok := s.views[p]; ok {
			w.queue <- shipped{partition: p, epoch: v.epoch, blob: v.blob}
		}
	}
	s.watchers = append(s.watchers, w)
	s.mu.Unlock()
	defer s.unwatch(w)

	idle := time.NewTimer(watchHeartbeat)
	defer idle.Stop()
	for {
		var frame [][]byte
		select {
		case <-w.cut:
			return hangUp(fmt.Errorf("netstore: watcher of shard %d cut off", s.cfg.Shard))
		case v := <-w.queue:
			frame = [][]byte{shipHeader(v), v.blob}
		case <-idle.C:
			frame = [][]byte{{statusOK}}
		}
		conn.SetWriteDeadline(time.Now().Add(watchTimeout))
		if err := writeFrame(conn, frame...); err != nil {
			return hangUp(err)
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(watchHeartbeat)
	}
}

// unwatch drops w from the watcher list if the primary has not already
// cut it off.
func (s *Server) unwatch(w *watcher) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, x := range s.watchers {
		if x == w {
			s.watchers = slices.Delete(s.watchers, i, i+1)
			return
		}
	}
}

// epoch reports partition p's epoch counter and the epoch stamp of its
// current serve view (0 when none is published). Epoch checks are
// metadata reads — no device charge — which is what makes a replica's
// per-read freshness probe cheap against a primary whose spindle is
// busy with phase-4 state traffic.
func (s *Server) epoch(p uint32) (base, view uint64, err error) {
	if err := s.checkRange(p); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs[p], s.views[p].epoch, nil
}

// getView reads partition p's serve view for a client, charging the
// shard's spindle for the full blob. Replicas never issue it: views
// reach them on the WATCH stream, straight from memory.
func (s *Server) getView(p uint32) (uint64, []byte, error) {
	if err := s.checkRange(p); err != nil {
		return 0, nil, err
	}
	s.mu.Lock()
	v, ok := s.views[p]
	s.mu.Unlock()
	if !ok {
		return 0, nil, fmt.Errorf("netstore: partition %d has no published serve view", p)
	}
	s.cfg.Device.Read(int64(len(v.blob)))
	return v.epoch, v.blob, nil
}

// lookup resolves a user's view entry across this shard's views. The
// answer is charged to the spindle as one random read of the entry's
// bytes: committed state is disk-resident in the paper's cost model, so
// point lookups on a primary contend with phase-4 state I/O — the
// queueing that read replicas exist to take off this device.
func (s *Server) lookup(u uint32) (uint64, ViewEntry, error) {
	s.mu.Lock()
	_, dead := s.tombstones[u]
	epoch, entry, ok := s.entry(u)
	s.mu.Unlock()
	if dead {
		// A tombstoned user misses immediately on the primaries, even
		// before the delta commit republishes the partition without it —
		// the DELUSER caller must never read its own deleted user back.
		return 0, ViewEntry{}, fmt.Errorf("%w: user %d tombstoned on shard %d", ErrNotServed, u, s.cfg.Shard)
	}
	if !ok {
		return 0, ViewEntry{}, fmt.Errorf("%w: user %d on shard %d", ErrNotServed, u, s.cfg.Shard)
	}
	s.cfg.Device.Read(int64(12 + 4*len(entry.Neighbors) + len(entry.Profile)))
	return epoch, entry, nil
}

// collect snapshots every stored partition in ascending id order,
// charging the spindle one read per partition covering the partition's
// full volume (base plus partials): a partition's partials append to
// its log, so collecting it is one random access plus sequential
// transfer — the same one-read-per-partition cost the in-process
// store's Collect pays, never a free aggregate scan (COLLECT is the
// final read pass of phase 4, so it pays device time like any load).
// Partials emit in ascending token order — a deterministic order, but
// any order would do: they merge commutatively.
func (s *Server) collect() ([]CollectItem, error) {
	if err := s.faultGate(disk.AccessRead, 0); err != nil {
		return nil, err
	}
	s.mu.Lock()
	ids := sortedKeys(s.base)
	items := make([]CollectItem, 0, len(ids))
	for _, id := range ids {
		byToken := s.partials[id]
		tokens := sortedKeys(byToken)
		parts := make([][]byte, 0, len(tokens))
		for _, t := range tokens {
			parts = append(parts, byToken[t])
		}
		items = append(items, CollectItem{
			Partition: id,
			Base:      s.base[id],
			Partials:  parts,
		})
	}
	s.mu.Unlock()
	for _, it := range items {
		volume := int64(len(it.Base))
		for _, p := range it.Partials {
			volume += int64(len(p))
		}
		s.cfg.Device.Read(volume)
	}
	return items, nil
}
