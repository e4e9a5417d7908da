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
// Staleness is bounded by the epoch discipline: before answering a
// lookup the replica probes the primary's view epoch for the owning
// partition — a metadata roundtrip that costs the primary no device
// time — and re-pulls the view only when the stamp moved. Between
// commits the replica therefore serves epoch N from its own spindle
// while the primary's spindle grinds through phase-4 state traffic;
// the moment iteration N+1 commits, the next lookup self-invalidates
// and pulls epoch N+1. A read observes exactly one of the two — never
// a mix, because views install atomically on both ends.
type Replica struct {
	*frameListener
	cfg     ReplicaConfig
	router  pigraph.ShardRouter
	lo, hi  int
	primary *shardConn

	mu      sync.Mutex
	views   map[uint32]serveView
	userIdx map[uint32]uint32
	pulling map[uint32]*viewPull // in-flight view pull per partition

	pulls    atomic.Uint64 // view re-pulls from the primary
	degraded atomic.Uint64 // lookups served stale because the primary was unreachable
	closed   atomic.Bool
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
	// Device, when non-nil, is the replica's own spindle: cached-view
	// installs pay sequential writes and lookups pay point reads here
	// instead of on the primary's device — the whole reason replicas
	// improve tail latency under phase-4 load. Nil adds no latency.
	Device *disk.Device
	// ProbeTimeout bounds each freshness probe and view pull against
	// the primary, so a dead primary can never wedge a lookup — the
	// probe fails fast and the replica serves its cached view in
	// degraded mode instead. Default 1s.
	ProbeTimeout time.Duration
	// WrapListener, when non-nil, wraps the replica's listener before
	// serving starts (the fault-injection seam, same as ServerConfig's).
	WrapListener func(net.Listener) net.Listener
}

// NewReplica dials the primary, binds the replica's listener, and
// starts serving in the background.
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
		views:   make(map[uint32]serveView),
		userIdx: make(map[uint32]uint32),
		pulling: make(map[uint32]*viewPull),
	}
	r.lo, r.hi = router.Range(cfg.Shard)
	r.serve(r.handle)
	return r, nil
}

// Range reports the contiguous partition range [lo, hi) this replica
// serves reads for.
func (r *Replica) Range() (lo, hi int) { return r.lo, r.hi }

// Device reports the replica's emulated spindle (nil without emulation).
func (r *Replica) Device() *disk.Device { return r.cfg.Device }

// Pulls reports how many view re-pulls the replica has issued — the
// observable cost of invalidation (at most one per partition per
// committed epoch, regardless of read rate).
func (r *Replica) Pulls() uint64 { return r.pulls.Load() }

// Degraded reports how many requests were answered from the cached
// view because the primary was unreachable — the observable size of
// the degraded-mode window.
func (r *Replica) Degraded() uint64 { return r.degraded.Load() }

// Close stops the listener, hangs up on the primary and every client,
// and waits for all handlers to return.
func (r *Replica) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.primary.mu.Lock()
	r.primary.poisonLocked()
	r.primary.mu.Unlock()
	return r.frameListener.close()
}

// handle answers one request frame (see handleFunc) with the read
// verbs only.
func (r *Replica) handle(op byte, body []byte, _ func([]byte) error) ([]byte, error) {
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
		// PUSHUPD, DRAINUPD, ADDUSER, DELUSER, DRAINMUT, STALENESS — is
		// refused: a replica can never mutate the primary's state or
		// absorb writes (or mutations) that would be lost on re-pull, and
		// staleness is primary-side metadata the front end reads there.
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

// viewPull is one in-flight GETVIEW of a partition; readers that find
// it wait on done and share its outcome instead of pulling again.
type viewPull struct {
	done chan struct{}
	err  error
}

// refreshPartition brings partition p's cached view up to the
// primary's current view epoch: probe, and re-pull only on mismatch.
// A primary that has not published a view yet (view epoch 0) leaves
// the cache as-is. Concurrent readers of one stale partition share one
// pull: the first starts it, the rest wait for it and then re-check
// the cache against the epoch their own probe saw, so a read that
// probed a commit still returns that commit or a later one.
//
// The probe carries the configured deadline and NEVER fails a request
// it could still answer: when the primary is unreachable (transient
// failure) and a cached view exists, the replica serves it as-is —
// degraded mode, staleness bounded by however long the primary stays
// down instead of by one epoch. Only a partition with no cached view
// at all surfaces the failure — the puller's, to every waiter too.
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
	if view == 0 || (have && cached.epoch == view) {
		return nil
	}
	for {
		r.mu.Lock()
		if v, ok := r.views[p]; ok && v.epoch >= view {
			r.mu.Unlock()
			return nil
		}
		if pull := r.pulling[p]; pull != nil {
			r.mu.Unlock()
			<-pull.done
			if pull.err != nil {
				return r.degrade(pull.err, have)
			}
			continue // the pull may predate the epoch this reader probed
		}
		pull := &viewPull{done: make(chan struct{})}
		r.pulling[p] = pull
		r.mu.Unlock()
		pull.err = r.pullView(p)
		r.mu.Lock()
		delete(r.pulling, p)
		r.mu.Unlock()
		close(pull.done)
		if pull.err != nil {
			// The primary may have died between the probe and the pull;
			// the view it advertised is gone for now, the cached epoch
			// still serves.
			return r.degrade(pull.err, have)
		}
		return nil
	}
}

// degrade answers a failed probe or pull: a transient failure with a
// cached view to fall back on is served stale (and counted); anything
// else surfaces.
func (r *Replica) degrade(err error, have bool) error {
	if IsTransient(err) && have {
		r.degraded.Add(1)
		return nil
	}
	return err
}

// pullView fetches partition p's current view from the primary and
// installs it in the cache.
func (r *Replica) pullView(p uint32) error {
	epoch, blob, err := r.primaryGetView(p)
	if err != nil {
		return err
	}
	entries, err := DecodeView(blob)
	if err != nil {
		return err
	}
	idx := make(map[uint32]ViewEntry, len(entries))
	for _, e := range entries {
		idx[e.User] = e
	}
	// Installing the pulled view is a sequential write to the replica's
	// own spindle — paid here, off the primary's device.
	r.cfg.Device.Append(int64(len(blob)))
	r.mu.Lock()
	r.views[p] = serveView{epoch: epoch, blob: blob, index: idx}
	for u := range idx {
		r.userIdx[u] = p
	}
	r.mu.Unlock()
	r.pulls.Add(1)
	return nil
}

func (r *Replica) primaryGetView(p uint32) (uint64, []byte, error) {
	body, err := r.primary.roundTrip(appendU32([]byte{opGetView}, p))
	if err != nil {
		return 0, nil, err
	}
	return cutU64(body)
}

// lookup resolves user u against the freshest cached views. Answers
// come from the in-memory cache at RAM speed — the replica's spindle
// is charged only when a pull installs a new view (refreshPartition),
// which is what makes replica reads cheap under phase-4 load. An
// unknown user triggers a full refresh of the replica's partition
// range — the user may have moved partitions at the last commit —
// before giving up with ErrNotServed.
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
	p, ok := r.userIdx[u]
	if !ok {
		return 0, ViewEntry{}, false
	}
	v := r.views[p]
	entry, ok := v.index[u]
	return v.epoch, entry, ok
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
