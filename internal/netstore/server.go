package netstore

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
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

// setView makes v partition p's view and routes its members to it.
func (vs viewSet) setView(p uint32, v serveView) {
	vs.views[p] = v
	for u := range v.index {
		vs.userIdx[u] = p
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
	// DataDir, when non-empty, makes the shard durable: every applied
	// mutation journals to DataDir before its response is sent, a
	// snapshot is cut at each commit (staleness publish) or when the
	// journal grows past its threshold, and a restarting shard replays
	// snapshot+journal back to its pre-crash state. Leases are volatile
	// on purpose — a restart revokes them all, which is what fences the
	// pre-crash workers (see docs/PROTOCOL.md, "Snapshot and journal").
	DataDir string
	// WrapListener, when non-nil, wraps the shard's TCP listener before
	// serving starts — the seam internal/fault's injecting listener
	// plugs into without this package importing it.
	WrapListener func(net.Listener) net.Listener
}

// Server is one state-store shard: a partition-range-validated blob map
// with lease bookkeeping, serving the netstore protocol on a TCP
// listener. All state is in memory; durability across iterations is the
// engine's job (phase 1 rewrites every base blob), so the emulated
// Device is the only "disk" a shard has.
type Server struct {
	*frameListener
	cfg    ServerConfig
	router pigraph.ShardRouter
	lo, hi int

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
	router, err := pigraph.NewShardRouter(cfg.NumPartitions, max(cfg.Shards, 1))
	if err != nil {
		return nil, fmt.Errorf("netstore: %w", err)
	}
	if cfg.Shard < 0 || cfg.Shard >= router.NumShards() {
		return nil, fmt.Errorf("netstore: shard index %d out of range [0,%d)", cfg.Shard, router.NumShards())
	}
	s := &Server{
		cfg:        cfg,
		router:     router,
		base:       make(map[uint32][]byte),
		partials:   make(map[uint32]map[uint64][]byte),
		leases:     make(map[uint32]map[uint64]struct{}),
		epochs:     make(map[uint32]uint64),
		viewSet:    newViewSet(),
		tombstones: make(map[uint32]struct{}),
	}
	s.lo, s.hi = router.Range(cfg.Shard)
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

// Range reports the contiguous partition range [lo, hi) this shard owns.
func (s *Server) Range() (lo, hi int) { return s.lo, s.hi }

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

// handle answers one request frame (see handleFunc): a body too short
// for its verb, or an unknown opcode, hangs up; everything else is
// answered in-band.
func (s *Server) handle(op byte, body []byte, conn net.Conn) ([]byte, error) {
	switch op {
	case opGet:
		p, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		return s.get(p)

	case opPut:
		p, rest, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		kind, rest, err := cutByte(rest)
		if err != nil {
			return nil, hangUp(err)
		}
		token, blob, err := cutU64(rest)
		if err != nil {
			return nil, hangUp(err)
		}
		return nil, s.put(p, kind, token, blob)

	case opLease:
		p, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		token, err := s.lease(p)
		if err != nil {
			return nil, err
		}
		return appendU64(nil, token), nil

	case opRelease:
		p, rest, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		token, _, err := cutU64(rest)
		if err != nil {
			return nil, hangUp(err)
		}
		return nil, s.release(p, token)

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

	case opClear:
		return nil, s.clear()

	case opEpoch:
		p, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		base, view, err := s.epoch(p)
		if err != nil {
			return nil, err
		}
		return appendU64(appendU64(nil, base), view), nil

	case opGetView:
		p, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		epoch, blob, err := s.getView(p)
		if err != nil {
			return nil, err
		}
		return append(appendU64(nil, epoch), blob...), nil

	case opNeighbors, opProfile:
		u, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		epoch, entry, err := s.lookup(u)
		if err != nil {
			return nil, err
		}
		return encodeLookup(op, epoch, entry), nil

	case opPushUpd:
		return nil, s.pushUpdates(body)

	case opDrainUpd:
		return s.drainUpdates()

	case opAddUser:
		u, blob, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		return nil, s.addUser(u, blob)

	case opDelUser:
		u, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		return nil, s.delUser(u)

	case opDrainMut:
		return s.drainMutations()

	case opStaleness:
		s.mu.Lock()
		blob := s.staleness
		s.mu.Unlock()
		return blob, nil

	default:
		return nil, hangUp(fmt.Errorf("netstore: unknown opcode 0x%02x", op))
	}
}

// encodeLookup lays out a NEIGHBORS or PROFILE response: the view epoch,
// then the neighbor list (count-prefixed) or the profile blob.
func encodeLookup(op byte, epoch uint64, entry ViewEntry) []byte {
	resp := appendU64(nil, epoch)
	if op == opProfile {
		return append(resp, entry.Profile...)
	}
	resp = appendU32(resp, uint32(len(entry.Neighbors)))
	for _, id := range entry.Neighbors {
		resp = appendU32(resp, id)
	}
	return resp
}

// ownsUser reports whether this shard is user u's mutation owner —
// shard u mod N, the same stable user-keyed mapping PUSHUPD routes by.
// ADDUSER/DELUSER broadcast to every shard (tombstones must be globally
// visible so point lookups miss immediately on whichever shard holds
// the user's view), but only the owning shard journals the mutation, so
// the engine's drain sees each mutation exactly once.
func (s *Server) ownsUser(u uint32) bool {
	return int(u)%s.router.NumShards() == s.cfg.Shard
}

// addUser clears user u's tombstone (a re-add resurrects the id) and,
// on u's owning shard, enqueues a MutAdd record carrying the profile
// blob for the engine's next delta pass.
func (s *Server) addUser(u uint32, profileBlob []byte) error {
	batch := EncodeMutations([]Mutation{{Op: MutAdd, User: u, Profile: profileBlob}})
	s.mu.Lock()
	delete(s.tombstones, u)
	owner := s.ownsUser(u)
	if owner {
		s.mutations = append(s.mutations, batch)
	}
	jerr := s.logRecordLocked(recAddUser, append(appendU32(nil, u), profileBlob...))
	s.mu.Unlock()
	if owner {
		s.cfg.Device.Append(int64(len(batch)))
	}
	return jerr
}

// delUser tombstones user u — point lookups on this shard miss
// immediately, before any delta commit — and, on u's owning shard,
// enqueues a MutDel record for the engine's next delta pass. The
// journal record lands first: were the append to fail after the
// tombstone was set, a restart would resurrect a user its caller was
// told is gone.
func (s *Server) delUser(u uint32) error {
	batch := EncodeMutations([]Mutation{{Op: MutDel, User: u}})
	s.mu.Lock()
	if err := s.logRecordLocked(recDelUser, appendU32(nil, u)); err != nil {
		s.mu.Unlock()
		return err
	}
	s.tombstones[u] = struct{}{}
	owner := s.ownsUser(u)
	if owner {
		s.mutations = append(s.mutations, batch)
	}
	s.mu.Unlock()
	if owner {
		s.cfg.Device.Append(int64(len(batch)))
	}
	return nil
}

// drainMutations returns the concatenated pending mutation batches (in
// arrival order) and clears the queue — same shape as drainUpdates.
func (s *Server) drainMutations() ([]byte, error) {
	return s.drainQueue(&s.mutations, recDrainMut)
}

// drainQueue hands out one pending queue, each batch length-prefixed,
// and clears it, charging the drained volume as one sequential read.
// The drain is journaled before the queue is cleared and fails without
// clearing it when the append does: a drain the journal never saw would
// be replayed by a restart, handing the engine the same batches twice.
func (s *Server) drainQueue(queue *[][]byte, rec byte) ([]byte, error) {
	s.mu.Lock()
	if err := s.logRecordLocked(rec, nil); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	batches := *queue
	*queue = nil
	s.mu.Unlock()
	var out []byte
	var volume int64
	for _, b := range batches {
		out = appendU32(out, uint32(len(b)))
		out = append(out, b...)
		volume += int64(len(b))
	}
	if volume > 0 {
		s.cfg.Device.Read(volume)
	}
	return out, nil
}

// checkRange validates shard ownership — the router is the only
// directory; a misrouted request is a client bug surfaced loudly.
func (s *Server) checkRange(p uint32) error {
	if int(p) < s.lo || int(p) >= s.hi {
		return fmt.Errorf("netstore: partition %d outside shard %d/%d range [%d,%d)",
			p, s.cfg.Shard, s.router.NumShards(), s.lo, s.hi)
	}
	return nil
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

func (s *Server) put(p uint32, kind byte, token uint64, blob []byte) error {
	if err := s.checkRange(p); err != nil {
		return err
	}
	switch kind {
	case putBase:
		if err := s.faultGate(disk.AccessWrite, int64(len(blob))); err != nil {
			return err
		}
	case putPartial, putView, putDeltaView:
		if err := s.faultGate(disk.AccessAppend, int64(len(blob))); err != nil {
			return err
		}
	case putStale:
		// Pure metadata, never charged to the device — so no injected
		// device fault either; an unknown kind fails in the state
		// switch below.
	}
	stored := append([]byte(nil), blob...)
	var view serveView
	if kind == putView || kind == putDeltaView {
		// Decode outside the state mutex — a view covers a whole
		// partition's membership and lookups should not stall on it.
		// The epoch stamp is set at install.
		var err error
		if view, err = newServeView(0, stored); err != nil {
			return fmt.Errorf("netstore: view of partition %d: %w", p, err)
		}
	}
	s.mu.Lock()
	switch kind {
	case putBase:
		// A base PUT opens a new epoch for the partition: partials from
		// the previous iteration are dropped, every outstanding lease
		// is revoked — so a zombie worker's later write-back fails the
		// fencing check instead of contaminating the fresh state — and
		// the partition's epoch counter advances, which is what lets
		// read replicas detect that their cached view is stale.
		s.base[p] = stored
		delete(s.partials, p)
		delete(s.leases, p)
		s.epochs[p]++
	case putPartial:
		if _, live := s.leases[p][token]; !live {
			s.mu.Unlock()
			return fmt.Errorf("%w: partition %d token %d", ErrStaleLease, p, token)
		}
		if s.partials[p] == nil {
			s.partials[p] = make(map[uint64][]byte)
		}
		s.partials[p][token] = stored
	case putView:
		// The committed serve view, stamped with the partition's current
		// epoch (the one the publishing iteration's base PUT opened).
		// Installed atomically — a point lookup sees the old complete
		// view or the new complete view, never a mix.
		view.epoch = s.epochs[p]
		s.installViewLocked(p, view)
	case putDeltaView:
		// A delta republish: no base install opened a new epoch, so the
		// PUT itself bumps the counter and stamps the view with the new
		// value — the moved stamp a replica's read probe compares.
		// Compute state (base, partials, leases) is untouched.
		s.epochs[p]++
		view.epoch = s.epochs[p]
		s.installViewLocked(p, view)
	case putStale:
		s.staleness = stored
	default:
		s.mu.Unlock()
		return fmt.Errorf("netstore: unknown PUT kind 0x%02x", kind)
	}
	// Journal the applied PUT while still holding the state mutex, so
	// journal order IS application order — replay cannot invert two
	// racing writes. A staleness publish is the engine's per-iteration
	// commit marker, so it also cuts a snapshot.
	body := appendU32(nil, p)
	body = append(body, kind)
	body = appendU64(body, token)
	body = append(body, stored...)
	jerr := s.logRecordLocked(recPut, body)
	if jerr == nil {
		jerr = s.maybeSnapshotLocked(kind == putStale)
	}
	s.mu.Unlock()
	if jerr != nil {
		return jerr
	}
	// A base PUT installs a partition's state wherever it lives — a
	// random write. A partial — and a view publish — is a blind append
	// to the shard's journal (the log-structured write path collect's
	// per-partition read model assumes), so it pays sequential transfer
	// with no seek. A staleness publish is pure metadata, like EPOCH.
	switch kind {
	case putBase:
		s.cfg.Device.Write(int64(len(blob)))
	case putPartial, putView, putDeltaView:
		s.cfg.Device.Append(int64(len(blob)))
	case putStale:
		// metadata only — no device charge
	default:
		panic("unreachable: kind validated above")
	}
	return nil
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

// pushUpdates enqueues one encoded batch of profile updates for the
// engine's next phase 5. The batch is validated on arrival so a corrupt
// frame fails its sender, not the draining engine. Appending to the
// update journal is sequential — no seek.
func (s *Server) pushUpdates(blob []byte) error {
	if _, err := DecodeUpdates(blob); err != nil {
		return err
	}
	stored := append([]byte(nil), blob...)
	s.mu.Lock()
	s.updates = append(s.updates, stored)
	jerr := s.logRecordLocked(recPushUpd, stored)
	s.mu.Unlock()
	s.cfg.Device.Append(int64(len(blob)))
	return jerr
}

// drainUpdates returns the concatenated pending update batches (in
// arrival order) and clears the queue. The response payload is a
// sequence of encoded batches, each length-prefixed.
func (s *Server) drainUpdates() ([]byte, error) {
	return s.drainQueue(&s.updates, recDrainUpd)
}

func (s *Server) lease(p uint32) (uint64, error) {
	if err := s.checkRange(p); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.base[p]; !ok {
		return 0, fmt.Errorf("netstore: lease of partition %d with no stored state", p)
	}
	s.nextToken++
	token := s.nextToken
	if s.leases[p] == nil {
		s.leases[p] = make(map[uint64]struct{})
	}
	s.leases[p][token] = struct{}{}
	// Journal the grant for token monotonicity only: replay advances
	// nextToken past every token ever issued, so a restarted shard can
	// never re-grant a pre-crash token. The lease itself is volatile —
	// recovery revokes it, which is the fencing.
	if err := s.logRecordLocked(recLease, appendU64(appendU32(nil, p), token)); err != nil {
		return 0, err
	}
	return token, nil
}

func (s *Server) release(p uint32, token uint64) error {
	if err := s.checkRange(p); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.leases[p][token]; !live {
		return fmt.Errorf("%w: release of partition %d token %d", ErrStaleLease, p, token)
	}
	delete(s.leases[p], token)
	return nil
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
	ids := make([]uint32, 0, len(s.base))
	for id := range s.base {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	items := make([]CollectItem, 0, len(ids))
	for _, id := range ids {
		byToken := s.partials[id]
		tokens := make([]uint64, 0, len(byToken))
		for t := range byToken {
			tokens = append(tokens, t)
		}
		sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
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

// clear drops the compute-side state (bases, partials, leases) but
// keeps the serving side — epochs, views, user index, pending updates,
// pending mutations, tombstones, and the published staleness document.
// The engine clears the store at the end of every iteration, after the
// serve views are published; wiping them would blind the serving tier
// between iterations, and resetting epochs would let a replica mistake
// a fresh run's view for the one it already cached.
func (s *Server) clear() error {
	s.mu.Lock()
	s.base = make(map[uint32][]byte)
	s.partials = make(map[uint32]map[uint64][]byte)
	s.leases = make(map[uint32]map[uint64]struct{})
	err := s.logRecordLocked(recClear, nil)
	s.mu.Unlock()
	return err
}
