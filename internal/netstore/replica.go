package netstore

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"knnpc/internal/disk"
	"knnpc/internal/pigraph"
)

// Replica is a read-only state-store node shadowing one primary shard.
// It serves the protocol's read verbs (EPOCH, GETVIEW, NEIGHBORS,
// PROFILE) from a local cache of the primary's serve views and rejects
// every compute verb, so it can never perturb phase-4 state.
//
// Views reach the cache by log shipping: one background goroutine
// holds a WATCH subscription on the primary, which forwards every view
// it installs straight from memory, and installs each one on arrival —
// charging the replica's own spindle, never the primary's. A read still
// probes the primary's view epoch for the owning partition (a metadata
// roundtrip that costs the primary no device time), and when the cache
// is behind it waits for the stream to deliver that epoch: a network
// hop plus a local install, not a seek queued behind phase-4 state
// traffic. A read observes exactly one view per partition — never a
// mix, because views install atomically on both ends.
type Replica struct {
	*frameListener
	cfg     ReplicaConfig
	router  pigraph.ShardRouter
	lo, hi  int
	primary *shardConn // EPOCH probes

	mu        sync.Mutex
	viewSet                 // the cache
	installed chan struct{} // closed and replaced by every install
	stream    net.Conn      // the live WATCH connection, nil between dials

	pulls    atomic.Uint64 // views transferred from the primary
	degraded atomic.Uint64 // lookups served stale because the primary was unreachable
	closed   atomic.Bool
	stop     chan struct{} // closed by Close
	followed chan struct{} // closed when the stream goroutine exits
}

// ReplicaConfig describes one read replica.
type ReplicaConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// Primary is the address of the shard this replica shadows.
	Primary string
	// Shard and Shards place the shadowed primary in the cluster; the
	// replica owns (reads for) the same contiguous partition range.
	Shard, Shards int
	// NumPartitions is the engine's partition count m.
	NumPartitions int
	// Device, when non-nil, is the replica's own spindle: every shipped
	// view's install pays a sequential write here instead of a read on
	// the primary's device — the whole reason replicas improve tail
	// latency under phase-4 load. Nil adds no latency.
	Device *disk.Device
	// ProbeTimeout bounds each freshness probe against the primary and
	// each wait for the stream to deliver the probed epoch, so a dead
	// primary or a cut stream can never wedge a lookup — the replica
	// serves its cached view in degraded mode instead. Default 1s.
	ProbeTimeout time.Duration
	// WrapListener, when non-nil, wraps the replica's listener before
	// serving starts (the fault-injection seam, same as ServerConfig's).
	WrapListener func(net.Listener) net.Listener
}

// NewReplica dials the primary, binds the replica's listener, starts
// following the primary's view stream, and starts serving in the
// background.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	router, err := pigraph.NewShardRouter(cfg.NumPartitions, max(cfg.Shards, 1))
	if err != nil {
		return nil, fmt.Errorf("netstore: %w", err)
	}
	if cfg.Shard < 0 || cfg.Shard >= router.NumShards() {
		return nil, fmt.Errorf("netstore: shard index %d out of range [0,%d)", cfg.Shard, router.NumShards())
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	// The probe connection is a regular client shard connection with a
	// tight envelope: short deadline, two attempts, fast backoff — a
	// probe that cannot answer quickly should fail into the degraded
	// path, not queue lookups behind a dead primary. Reconnects are
	// transparent, so a restarted primary is picked up on the next probe.
	popts := ClientOptions{
		OpTimeout:   cfg.ProbeTimeout,
		DialTimeout: cfg.ProbeTimeout,
		MaxAttempts: 2,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
	conn, err := net.DialTimeout("tcp", cfg.Primary, popts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netstore: replica dial primary %s: %w", cfg.Primary, err)
	}
	ln, err := listenFrames(cfg.Addr, cfg.WrapListener)
	if err != nil {
		conn.Close()
		return nil, err
	}
	r := &Replica{
		frameListener: ln,
		cfg:           cfg,
		router:        router,
		primary: &shardConn{
			addr: cfg.Primary,
			opts: popts,
			conn: conn,
			rng:  rand.New(rand.NewSource(jitterSeed(0, cfg.Shard))),
		},
		viewSet:   newViewSet(),
		installed: make(chan struct{}),
		stop:      make(chan struct{}),
		followed:  make(chan struct{}),
	}
	r.lo, r.hi = router.Range(cfg.Shard)
	go r.follow()
	r.serve(r.handle)
	return r, nil
}

// Range reports the contiguous partition range [lo, hi) this replica
// serves reads for.
func (r *Replica) Range() (lo, hi int) { return r.lo, r.hi }

// Device reports the replica's emulated spindle (nil without emulation).
func (r *Replica) Device() *disk.Device { return r.cfg.Device }

// Pulls reports how many views the replica has received from the
// primary's stream and installed: one per partition per published
// epoch (plus one per partition for each re-subscribe's snapshot),
// however many reads there are.
func (r *Replica) Pulls() uint64 { return r.pulls.Load() }

// Degraded reports how many requests were answered from the cached
// view because the primary was unreachable or its stream had not
// delivered the probed epoch in time — the observable size of the
// degraded-mode window.
func (r *Replica) Degraded() uint64 { return r.degraded.Load() }

// Close stops the listener and the stream goroutine, hangs up on the
// primary and every client, and waits for all of them to return.
func (r *Replica) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	close(r.stop)
	r.mu.Lock()
	if r.stream != nil {
		r.stream.Close()
	}
	r.mu.Unlock()
	<-r.followed
	r.primary.mu.Lock()
	r.primary.poisonLocked()
	r.primary.mu.Unlock()
	return r.frameListener.close()
}

// followBackoff is the stream goroutine's pause before it redials.
const followBackoff = 50 * time.Millisecond

// follow is the replica's one stream goroutine: subscribe, install
// frames until the stream drops or goes silent past watchTimeout, then
// redial after followBackoff — until Close.
func (r *Replica) follow() {
	defer close(r.followed)
	for {
		r.watch()
		select {
		case <-r.stop:
			return
		case <-time.After(followBackoff):
		}
	}
}

// watch runs one WATCH subscription until it drops.
func (r *Replica) watch() {
	conn, err := net.DialTimeout("tcp", r.cfg.Primary, r.cfg.ProbeTimeout)
	if err != nil {
		return
	}
	defer conn.Close()
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return
	}
	r.stream = conn
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.stream = nil
		r.mu.Unlock()
	}()
	conn.SetDeadline(time.Now().Add(watchTimeout))
	if err := writeFrame(conn, []byte{opWatch}); err != nil {
		return
	}
	for {
		conn.SetReadDeadline(time.Now().Add(watchTimeout))
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		v, heartbeat, err := decodeShipFrame(frame)
		if err != nil {
			return
		}
		if heartbeat {
			continue
		}
		if err := r.install(v); err != nil {
			return // a corrupt frame: drop the stream, resubscribe
		}
	}
}

// install decodes one shipped view, charges its transfer to the
// replica's own spindle as a sequential write, makes it visible, and
// wakes every reader waiting for a newer epoch. Views install in
// stream order, which is the primary's install order.
func (r *Replica) install(v shipped) error {
	if int(v.partition) < r.lo || int(v.partition) >= r.hi {
		return fmt.Errorf("netstore: shipped partition %d outside replica range [%d,%d)", v.partition, r.lo, r.hi)
	}
	view, err := newServeView(v.epoch, v.blob)
	if err != nil {
		return err
	}
	r.cfg.Device.Append(int64(len(v.blob)))
	r.mu.Lock()
	r.setView(v.partition, view)
	r.pulls.Add(1)
	close(r.installed)
	r.installed = make(chan struct{})
	r.mu.Unlock()
	return nil
}

// handle answers one request frame (see handleFunc) with the read
// verbs only.
func (r *Replica) handle(op byte, body []byte, _ net.Conn) ([]byte, error) {
	switch op {
	case opEpoch:
		// Forwarded: the epoch question is about the primary's state, and
		// answering it from the cache would defeat its purpose.
		p, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		base, view, err := r.primaryEpoch(p)
		if err != nil {
			return nil, err
		}
		return appendU64(appendU64(nil, base), view), nil

	case opGetView:
		p, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		if err := r.refreshPartition(p); err != nil {
			return nil, err
		}
		r.mu.Lock()
		v, okV := r.views[p]
		r.mu.Unlock()
		if !okV {
			return nil, fmt.Errorf("netstore: partition %d has no published serve view", p)
		}
		return append(appendU64(nil, v.epoch), v.blob...), nil

	case opNeighbors, opProfile:
		u, _, err := cutU32(body)
		if err != nil {
			return nil, hangUp(err)
		}
		epoch, entry, err := r.lookup(u)
		if err != nil {
			return nil, err
		}
		return encodeLookup(op, epoch, entry), nil

	default:
		// Every non-read verb — GET, PUT, LEASE, RELEASE, COLLECT, CLEAR,
		// PUSHUPD, DRAINUPD, ADDUSER, DELUSER, DRAINMUT, STALENESS, WATCH
		// — is refused: a replica can never mutate the primary's state or
		// absorb writes (or mutations) its stream would overwrite,
		// staleness is primary-side metadata the front end reads there,
		// and replicas follow primaries, not each other.
		return nil, fmt.Errorf("netstore: replica of shard %d is read-only (op 0x%02x refused)", r.cfg.Shard, op)
	}
}

// primaryEpoch probes the primary for partition p's (base, view) epoch
// pair — the cheap freshness check.
func (r *Replica) primaryEpoch(p uint32) (base, view uint64, err error) {
	body, err := r.primary.roundTrip(appendU32([]byte{opEpoch}, p))
	if err != nil {
		return 0, 0, err
	}
	base, rest, err := cutU64(body)
	if err != nil {
		return 0, 0, err
	}
	view, _, err = cutU64(rest)
	return base, view, err
}

// refreshPartition brings partition p's cached view up to the
// primary's current view epoch: probe, and unless the cache holds the
// probed epoch, wait for the stream to install it. A primary that has
// not published a view yet (view epoch 0) leaves the cache as-is. The
// primary queues a view for its watchers in the same step that makes
// its epoch visible to EPOCH, so a read that probed a commit returns
// that commit or a later one: a later epoch the stream installs after
// the probe answers is fresh too. A cache that was already past the
// probed epoch is not — that is a primary restarted without a data
// directory, its epochs begun again — and waits for the restarted
// primary's view.
//
// The probe and the wait are both bounded by ProbeTimeout, and neither
// ever fails a request the replica could still answer: when the
// primary is unreachable or its stream is behind and a cached view
// exists, the replica serves it as-is — degraded mode, staleness
// bounded by however long the outage lasts instead of by one epoch.
// Only a partition with no cached view at all surfaces the failure.
func (r *Replica) refreshPartition(p uint32) error {
	if int(p) < r.lo || int(p) >= r.hi {
		return fmt.Errorf("netstore: partition %d outside replica %d/%d range [%d,%d)",
			p, r.cfg.Shard, r.router.NumShards(), r.lo, r.hi)
	}
	r.mu.Lock()
	cached, have := r.views[p]
	r.mu.Unlock()
	_, view, err := r.primaryEpoch(p)
	if err != nil {
		return r.degrade(err, have)
	}
	var timeout <-chan time.Time
	for {
		r.mu.Lock()
		v, have := r.views[p]
		installed := r.installed
		r.mu.Unlock()
		if view == 0 || have && (v.epoch == view || v.epoch > view && v.epoch != cached.epoch) {
			return nil
		}
		if timeout == nil {
			t := time.NewTimer(r.cfg.ProbeTimeout)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-installed:
		case <-timeout:
			return r.degrade(&UnavailableError{Addr: r.cfg.Primary, Stage: "watch",
				Err: fmt.Errorf("view epoch %d of partition %d not shipped within %v", view, p, r.cfg.ProbeTimeout)}, have)
		}
	}
}

// degrade answers a failed probe or an overdue stream: a transient
// failure with a cached view to fall back on is served stale (and
// counted); anything else surfaces.
func (r *Replica) degrade(err error, have bool) error {
	if IsTransient(err) && have {
		r.degraded.Add(1)
		return nil
	}
	return err
}

// lookup resolves user u against the freshest cached views. Answers
// come from the in-memory cache at RAM speed — the replica's spindle
// is charged only when the stream installs a view, which is what makes
// replica reads cheap under phase-4 load. An unknown user triggers a
// full refresh of the replica's partition range — the user may have
// moved partitions at the last commit — before giving up with
// ErrNotServed.
func (r *Replica) lookup(u uint32) (uint64, ViewEntry, error) {
	r.mu.Lock()
	p, hinted := r.userIdx[u]
	r.mu.Unlock()
	if hinted {
		if err := r.refreshPartition(p); err != nil {
			return 0, ViewEntry{}, err
		}
		if epoch, entry, okE := r.cachedEntry(u); okE {
			return epoch, entry, nil
		}
	}
	for p := uint32(r.lo); int(p) < r.hi; p++ {
		if err := r.refreshPartition(p); err != nil {
			return 0, ViewEntry{}, err
		}
	}
	if epoch, entry, okE := r.cachedEntry(u); okE {
		return epoch, entry, nil
	}
	return 0, ViewEntry{}, fmt.Errorf("%w: user %d on replica of shard %d", ErrNotServed, u, r.cfg.Shard)
}

// cachedEntry resolves u through the user index under the cache mutex.
func (r *Replica) cachedEntry(u uint32) (uint64, ViewEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entry(u)
}

// ReplicaSet bundles one loopback replica per primary shard — the
// serving-tier counterpart of Cluster.
type ReplicaSet struct {
	replicas []*Replica
	addrs    []string
}

// StartReplicas launches one loopback replica per primary address
// (primaries[i] must be shard i over numPartitions partitions, the
// order Cluster and Dial use). A non-nil model gives every replica its
// own emulated spindle (named "replica0", "replica1", ...).
func StartReplicas(primaries []string, numPartitions int, model *disk.Model) (*ReplicaSet, error) {
	addrs := make([]string, len(primaries))
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return StartReplicasOpts(addrs, primaries, numPartitions, model, ReplicaSetOptions{})
}

// ReplicaSetOptions carries the robustness knobs of an externally
// managed replica tier; the zero value adds none.
type ReplicaSetOptions struct {
	// WrapListener, when non-nil, wraps each replica's listener — the
	// fault-injection seam.
	WrapListener func(shard int, ln net.Listener) net.Listener
}

// StartReplicasOpts launches one replica per listen address, addrs[i]
// shadowing primaries[i] — the externally addressed form cmd/statestore
// -replicaof uses; StartReplicas is its loopback specialization.
func StartReplicasOpts(addrs, primaries []string, numPartitions int, model *disk.Model, opts ReplicaSetOptions) (*ReplicaSet, error) {
	if len(addrs) != len(primaries) {
		return nil, fmt.Errorf("netstore: %d replica addresses for %d primaries", len(addrs), len(primaries))
	}
	rs := &ReplicaSet{}
	for i, primary := range primaries {
		var dev *disk.Device
		if model != nil {
			dev = disk.NewNamedDevice(*model, fmt.Sprintf("replica%d", i))
		}
		cfg := ReplicaConfig{
			Addr:          addrs[i],
			Primary:       primary,
			Shard:         i,
			Shards:        len(primaries),
			NumPartitions: numPartitions,
			Device:        dev,
		}
		if opts.WrapListener != nil {
			shard := i
			cfg.WrapListener = func(ln net.Listener) net.Listener { return opts.WrapListener(shard, ln) }
		}
		rep, err := NewReplica(cfg)
		if err != nil {
			rs.Close()
			return nil, err
		}
		rs.replicas = append(rs.replicas, rep)
		rs.addrs = append(rs.addrs, rep.Addr())
	}
	return rs, nil
}

// Addrs reports the replica addresses in shard order — Dial accepts
// them exactly like primary addresses; only the read verbs will answer.
func (rs *ReplicaSet) Addrs() []string { return append([]string(nil), rs.addrs...) }

// Replicas reports the live replicas in shard order.
func (rs *ReplicaSet) Replicas() []*Replica { return append([]*Replica(nil), rs.replicas...) }

// Close stops every replica.
func (rs *ReplicaSet) Close() error {
	var firstErr error
	for _, r := range rs.replicas {
		if err := r.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
