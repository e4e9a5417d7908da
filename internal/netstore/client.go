package netstore

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"knnpc/internal/pigraph"
)

// ErrRetryable reports a transient server-side fault (statusRetry):
// the shard hit an injected or transient internal failure BEFORE
// applying the request, so retrying is always safe. Clients retry it
// automatically; it only escapes when the retry budget runs out.
var ErrRetryable = errors.New("netstore: transient server fault")

// ErrUnavailable reports a transport-level failure talking to a shard:
// dial refused, connection reset, deadline exceeded, torn frame. The
// client reconnects and retries behind it; when it escapes, the shard
// stayed unreachable for the whole retry budget. Match with errors.Is.
var ErrUnavailable = errors.New("netstore: shard unavailable")

// UnavailableError carries the failing shard's address and the
// underlying transport error. It matches ErrUnavailable.
type UnavailableError struct {
	// Addr is the shard's dial address.
	Addr string
	// Stage names the failing step: "dial", "send", or "receive" — or
	// "watch" when a replica's stream did not deliver a probed epoch in
	// time.
	Stage string
	// Err is the underlying transport error.
	Err error
}

// Error renders the failure with its shard and stage.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("netstore: shard %s: %s: %v", e.Addr, e.Stage, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *UnavailableError) Unwrap() error { return e.Err }

// Is matches ErrUnavailable, so errors.Is(err, ErrUnavailable) holds
// for every transport failure without losing the wrapped cause.
func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }

// IsTransient classifies an error from any client method: true for
// failures that a retry (possibly after the shard restarts) can cure —
// transport failures and server-declared transient faults — false for
// everything that reflects real state: fencing rejections, lookup
// misses, protocol violations, application errors.
func IsTransient(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrRetryable)
}

// ClientOptions tunes the client's robustness envelope. The zero value
// selects defaults fit for the emulated-spindle deployments this repo
// runs: generous per-op deadlines (a collect against a busy emulated
// HDD legitimately takes a while) and a short, jittered backoff ladder.
type ClientOptions struct {
	// OpTimeout bounds each request/response exchange (armed as a
	// connection deadline around every frame). Default 30s.
	OpTimeout time.Duration
	// DialTimeout bounds each (re)connect attempt. Default 5s.
	DialTimeout time.Duration
	// MaxAttempts is the per-operation attempt budget across
	// reconnects. Default 4; 1 disables retries.
	MaxAttempts int
	// BackoffBase is the first retry's backoff; each further attempt
	// doubles it up to BackoffMax, then a uniform jitter in [0.5, 1.5)
	// scales the result. Defaults 25ms and 1s.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff before jitter.
	BackoffMax time.Duration
}

func (o *ClientOptions) applyDefaults() {
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
}

// Client is the engine-side face of the sharded state store. It routes
// every operation to the shard owning the partition (contiguous ranges
// via pigraph.ShardRouter — the same routing layer the servers
// validate against) over one persistent TCP connection per shard.
//
// Operations on DIFFERENT shards run concurrently — that is the whole
// point of shard-per-spindle — while operations on the same shard
// serialize on its connection, mirroring how a spindle queues anyway.
// All methods are safe for concurrent use by the phase-4 prefetch and
// write-back goroutines of any number of workers.
//
// Every operation is bounded and classified: frames carry the
// configured deadline, transport failures poison the connection and
// transparently redial on the next attempt with capped exponential
// backoff plus jitter, and errors that escape divide into transient
// (IsTransient — a retry or shard restart can cure them) and fatal
// (fencing, misses, protocol violations). Operations whose replay
// could double-apply state — the drains and mutation pushes — are
// retried only when the request provably never reached the server.
type Client struct {
	router pigraph.ShardRouter
	shards []*shardConn
	hints  hintCache
}

type shardConn struct {
	addr string
	opts ClientOptions

	mu   sync.Mutex
	conn net.Conn
	rng  *rand.Rand // backoff jitter; guarded by mu
}

// ParseAddrs reads a comma-separated address list in shard order, the
// form every binary's shard-list flag takes. It trims spaces around
// each address and refuses an empty entry: a dropped shard would shift
// every later shard's partition range.
func ParseAddrs(list string) ([]string, error) {
	addrs := strings.Split(list, ",")
	for i, a := range addrs {
		if addrs[i] = strings.TrimSpace(a); addrs[i] == "" {
			return nil, fmt.Errorf("netstore: empty address in list %q", list)
		}
	}
	return addrs, nil
}

// Dial connects to one server per address; addrs[i] must be the shard
// with index i over numPartitions partitions (the order the cluster —
// or the operator — started them in). Default ClientOptions apply.
func Dial(addrs []string, numPartitions int) (*Client, error) {
	return DialOptions(addrs, numPartitions, ClientOptions{})
}

// DialOptions is Dial with explicit robustness options. The initial
// dial is eager — a shard that is down now fails fast here; shards
// that die later are redialed transparently per operation.
func DialOptions(addrs []string, numPartitions int, opts ClientOptions) (*Client, error) {
	opts.applyDefaults()
	router, err := pigraph.NewShardRouter(numPartitions, len(addrs))
	if err != nil {
		return nil, fmt.Errorf("netstore: %w", err)
	}
	c := &Client{router: router, shards: make([]*shardConn, len(addrs))}
	for i, addr := range addrs {
		sc := &shardConn{
			addr: addr,
			opts: opts,
			rng:  rand.New(rand.NewSource(jitterSeed(i))),
		}
		conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netstore: dial shard %d at %s: %w", i, addr, err)
		}
		sc.conn = conn
		c.shards[i] = sc
	}
	return c, nil
}

// jitterSeed derives a shard's backoff jitter seed from one fixed base,
// so every client is deterministic, mixing the shard index in so
// concurrent shard retries don't march in lockstep.
func jitterSeed(shard int) int64 {
	const base = 0x6b6e6e70
	return base*1000003 + int64(shard)*7919 + 1
}

// NumShards reports the cluster width N.
func (c *Client) NumShards() int { return len(c.shards) }

// Close tears down every shard connection.
func (c *Client) Close() error {
	var firstErr error
	for _, sc := range c.shards {
		if sc == nil {
			continue
		}
		sc.mu.Lock()
		if sc.conn != nil {
			if err := sc.conn.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sc.conn = nil
		}
		sc.mu.Unlock()
	}
	return firstErr
}

// roundTripFor routes an idempotent request about partition p to the
// shard owning it (see roundTrip).
func (c *Client) roundTripFor(p uint32, req []byte) ([]byte, error) {
	s, err := c.router.ShardOf(p)
	if err != nil {
		return nil, err
	}
	return c.shards[s].roundTrip(req)
}

// roundTrip sends one request frame on the shard's connection and
// reads one response frame, serialized per shard, retrying transient
// failures across reconnects. Use only for idempotent requests — every
// verb except the drains and mutation pushes, which go through
// roundTripOnce (see the Client doc comment for why their replay is
// unsafe).
func (sc *shardConn) roundTrip(req []byte) ([]byte, error) {
	return sc.roundTripRetry(req, true)
}

// roundTripOnce is roundTrip for non-idempotent requests: a transport
// failure after the request may have reached the server is returned
// instead of retried, because a replay could double-apply.
func (sc *shardConn) roundTripOnce(req []byte) ([]byte, error) {
	return sc.roundTripRetry(req, false)
}

func (sc *shardConn) roundTripRetry(req []byte, idempotent bool) ([]byte, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < sc.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			sc.backoffLocked(attempt)
		}
		sent, resp, err := sc.exchangeLocked(req)
		if err == nil {
			payload, err := checkResponse(resp)
			if err == nil {
				return payload, nil
			}
			if errors.Is(err, ErrRetryable) {
				// statusRetry's contract: the server did NOT apply the
				// request, so retrying is safe even for non-idempotent
				// verbs.
				lastErr = err
				continue
			}
			return nil, err // application-level failure: never retried
		}
		lastErr = err
		if sent && !idempotent {
			// The request may have been applied and only the response
			// lost; replaying could double-apply. Surface the ambiguity.
			return nil, err
		}
	}
	return nil, lastErr
}

// backoffLocked sleeps the capped exponential backoff for the given
// retry attempt, jittered uniformly in [0.5, 1.5) so shard retries
// spread instead of thundering together.
//
//knnlint:ignore locksleep the conn mutex serializes this shard's protocol stream; backing off IS this stream being down, and other shards proceed on their own conns
func (sc *shardConn) backoffLocked(attempt int) {
	d := sc.opts.BackoffBase << (attempt - 1)
	if d > sc.opts.BackoffMax || d <= 0 {
		d = sc.opts.BackoffMax
	}
	d = time.Duration((0.5 + sc.rng.Float64()) * float64(d))
	time.Sleep(d)
}

// exchangeLocked performs one request/response exchange, redialing a
// poisoned connection first and arming the per-op deadline around the
// frames. The sent result reports whether any request bytes may have
// reached the server (false only when the failure preceded the write).
func (sc *shardConn) exchangeLocked(req []byte) (sent bool, resp []byte, err error) {
	if sc.conn == nil {
		conn, err := net.DialTimeout("tcp", sc.addr, sc.opts.DialTimeout)
		if err != nil {
			return false, nil, &UnavailableError{Addr: sc.addr, Stage: "dial", Err: err}
		}
		sc.conn = conn
	}
	sc.conn.SetDeadline(time.Now().Add(sc.opts.OpTimeout))
	if err := writeFrame(sc.conn, req); err != nil {
		sc.poisonLocked()
		return true, nil, &UnavailableError{Addr: sc.addr, Stage: "send", Err: err}
	}
	resp, err = sc.readLocked()
	return true, resp, err
}

// readLocked reads one response frame under a fresh per-op deadline,
// poisoning the connection when the transport fails. Each frame of a
// stream re-arms the deadline: the bound is per-exchange silence, not
// total stream duration — a long collect that keeps moving is healthy.
func (sc *shardConn) readLocked() ([]byte, error) {
	sc.conn.SetDeadline(time.Now().Add(sc.opts.OpTimeout))
	resp, err := readFrame(sc.conn)
	if err != nil {
		sc.poisonLocked()
		return nil, &UnavailableError{Addr: sc.addr, Stage: "receive", Err: err}
	}
	return resp, nil
}

// poisonLocked closes a desynced or dead connection so the next
// attempt redials instead of reading a stale half-frame.
func (sc *shardConn) poisonLocked() {
	if sc.conn != nil {
		sc.conn.Close()
		sc.conn = nil
	}
}

// Get fetches partition p's base state blob.
func (c *Client) Get(p uint32) ([]byte, error) {
	return c.roundTripFor(p, appendU32([]byte{opGet}, p))
}

// PutBase stores partition p's phase-1 state, opening a new epoch: the
// shard drops accumulated partials and revokes outstanding leases.
func (c *Client) PutBase(p uint32, blob []byte) error {
	_, err := c.roundTripFor(p, putRequest(p, putBase, 0, blob))
	return err
}

// PutPartial appends one worker's accumulator partial for partition p.
// The fencing token must be a live lease — a released or revoked token
// fails with ErrStaleLease, which is what keeps a stale worker from
// clobbering state it no longer owns. Partials are keyed by token on
// the server, so a retried PUT overwrites its own first copy instead
// of duplicating it — what makes this verb safe to replay.
func (c *Client) PutPartial(p uint32, token uint64, blob []byte) error {
	_, err := c.roundTripFor(p, putRequest(p, putPartial, token, blob))
	return err
}

// Lease acquires a fencing token on partition p. Leases overlap freely —
// every concurrent holder gets its own token. A retried LEASE may leak
// a token on the server; leaked tokens hold no state and the next base
// PUT revokes them.
func (c *Client) Lease(p uint32) (uint64, error) {
	body, err := c.roundTripFor(p, appendU32([]byte{opLease}, p))
	if err != nil {
		return 0, err
	}
	return decodeToken(body)
}

// Release invalidates a lease token. A retried RELEASE whose first
// attempt was applied answers ErrStaleLease — callers treat that as
// "already released".
func (c *Client) Release(p uint32, token uint64) error {
	_, err := c.roundTripFor(p, appendU64(appendU32([]byte{opRelease}, p), token))
	return err
}

// Collect streams every stored partition through emit in ascending
// partition id order (shard ranges are contiguous and ordered, so
// shard-order emission is id-order emission — the in-process stores'
// Collect contract). The shards are drained concurrently — scatter,
// then gather in order: each shard's spindle pays its collect reads in
// parallel with the others', which a single shared device can never
// do (servers charge the device before streaming, so client-side
// ordering never re-serializes the sleeps). Buffering is bounded —
// one in-flight item per shard plus the transport buffers, never the
// whole dataset — so the engine's bounded-memory premise survives
// collect; emit itself runs on the caller's goroutine only.
//
// A shard stream that fails mid-way is NOT retried here: emit has
// already seen a prefix, so a replay would double-emit. The caller
// (the engine's graph-assembly step) restarts the whole collect with
// a fresh sink instead.
func (c *Client) Collect(emit func(item CollectItem) error) error {
	type result struct {
		it  CollectItem
		err error
	}
	chans := make([]chan result, len(c.shards))
	for i, sc := range c.shards {
		ch := make(chan result, 1)
		chans[i] = ch
		go func(sc *shardConn, ch chan result) {
			defer close(ch)
			err := c.collectShard(sc, func(it CollectItem) error {
				ch <- result{it: it}
				return nil
			})
			if err != nil {
				ch <- result{err: err}
			}
		}(sc, ch)
	}
	// Gather in shard order. After a failure the remaining channels are
	// still drained (without emitting) so no shard goroutine leaks.
	var firstErr error
	for i, ch := range chans {
		for r := range ch {
			switch {
			case r.err != nil:
				if firstErr == nil {
					firstErr = fmt.Errorf("netstore: collect shard %d: %w", i, r.err)
				}
			case firstErr == nil:
				if err := emit(r.it); err != nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

func (c *Client) collectShard(sc *shardConn, emit func(item CollectItem) error) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	_, resp, err := sc.exchangeLocked([]byte{opCollect})
	for ; err == nil; resp, err = sc.readLocked() {
		status, body, err := splitFrame(resp)
		if err != nil {
			return err
		}
		switch status {
		case statusPart:
			it, err := decodeCollectItem(body)
			if err != nil {
				sc.poisonLocked() // desynced mid-stream; do not reuse
				return err
			}
			if err := emit(it); err != nil {
				sc.poisonLocked() // abandoning the stream desyncs the conn
				return err
			}
		case statusEnd:
			return nil
		default:
			if _, err := checkResponse(resp); err != nil {
				return err
			}
			return fmt.Errorf("netstore: unexpected collect status 0x%02x", status)
		}
	}
	return err
}

// Clear drops the compute state on every shard (bases, partials,
// leases). Serve views, epochs, and pending updates survive — see the
// CLEAR contract in docs/PROTOCOL.md.
func (c *Client) Clear() error {
	for i, sc := range c.shards {
		if _, err := sc.roundTrip([]byte{opClear}); err != nil {
			return fmt.Errorf("netstore: clear shard %d: %w", i, err)
		}
	}
	return nil
}
