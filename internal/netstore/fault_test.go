package netstore

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastOpts keeps fault-injection tests quick: one attempt, tight
// deadlines — the classification is under test, not the retry ladder.
var fastOpts = ClientOptions{
	OpTimeout:   2 * time.Second,
	DialTimeout: time.Second,
	MaxAttempts: 1,
}

// fakeShard accepts connections in sequence and runs the matching
// script against each — the torn-frame / garbage-response injection
// endpoint a Client is pointed at. Connection i beyond the script list
// is closed immediately.
func fakeShard(t *testing.T, scripts ...func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if i >= len(scripts) {
				conn.Close()
				continue
			}
			script := scripts[i]
			go func() {
				defer conn.Close()
				script(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// drainRequest consumes one request frame so the scripted response is
// paired with a real request.
func drainRequest(conn net.Conn) {
	_, _ = readFrame(conn)
}

// TestClientTornResponseFrame: a response cut mid-payload surfaces as
// a classified transport error (io.ErrUnexpectedEOF under
// ErrUnavailable), not a hang or a garbage decode.
func TestClientTornResponseFrame(t *testing.T) {
	addr := fakeShard(t, func(conn net.Conn) {
		drainRequest(conn)
		// Announce 100 payload bytes, deliver 3, die.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 100)
		conn.Write(hdr[:])
		conn.Write([]byte{statusOK, 0xAA, 0xBB})
	})
	client, err := DialOptions([]string{addr}, 4, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Get(0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame surfaced as %v, want io.ErrUnexpectedEOF", err)
	}
	if !errors.Is(err, ErrUnavailable) || !IsTransient(err) {
		t.Fatalf("torn frame not classified transient: %v", err)
	}
}

// TestClientReconnectsAfterTornFrame: the connection a torn frame
// poisoned is redialed transparently — the next attempt reaches a
// healthy endpoint and succeeds, with no client rebuild.
func TestClientReconnectsAfterTornFrame(t *testing.T) {
	addr := fakeShard(t,
		func(conn net.Conn) {
			drainRequest(conn)
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], 100)
			conn.Write(hdr[:]) // torn: header only, then close
		},
		func(conn net.Conn) {
			drainRequest(conn)
			writeFrame(conn, append([]byte{statusOK}, "healed"...))
		},
	)
	opts := fastOpts
	opts.MaxAttempts = 3
	opts.BackoffBase = time.Millisecond
	opts.BackoffMax = 5 * time.Millisecond
	client, err := DialOptions([]string{addr}, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, err := client.Get(0)
	if err != nil || string(got) != "healed" {
		t.Fatalf("reconnect after torn frame: %q, %v", got, err)
	}
}

// TestClientOversizedFrame: a corrupt length prefix beyond the frame
// bound is rejected before any allocation.
func TestClientOversizedFrame(t *testing.T) {
	addr := fakeShard(t, func(conn net.Conn) {
		drainRequest(conn)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
		conn.Write(hdr[:])
	})
	client, err := DialOptions([]string{addr}, 4, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Get(0); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}

// TestClientShortResponsePayload: a well-framed but semantically short
// response (LEASE with no token bytes) errors instead of panicking.
func TestClientShortResponsePayload(t *testing.T) {
	addr := fakeShard(t, func(conn net.Conn) {
		drainRequest(conn)
		writeFrame(conn, []byte{statusOK}) // LEASE response missing its token
	})
	client, err := Dial([]string{addr}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Lease(0); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("short lease payload accepted: %v", err)
	}
}

// TestServerSurvivesTornRequest: a client that dies mid-frame (or sends
// garbage) costs the server that connection only — the next client is
// served normally, with state intact.
func TestServerSurvivesTornRequest(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good, err := Dial([]string{srv.Addr()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.PutBase(2, []byte("keep")); err != nil {
		t.Fatal(err)
	}

	for _, torn := range [][]byte{
		{0x00, 0x00, 0x00, 0x10, 0x01},       // announces 16 bytes, sends 1
		{0x00, 0x00},                         // dies inside the length prefix
		{0x00, 0x00, 0x00, 0x01, 0xFF},       // unknown opcode
		{0x7F, 0xFF, 0xFF, 0xFF},             // absurd length prefix
		{0x00, 0x00, 0x00, 0x02, opGet},      // GET with a truncated partition id
		{0x00, 0x00, 0x00, 0x05, opLease, 0}, // LEASE with 1 of 4 id bytes... then dies
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(torn)
		conn.Close()
	}
	// Give the handlers a beat to hit their read errors.
	time.Sleep(20 * time.Millisecond)

	got, err := good.Get(2)
	if err != nil || string(got) != "keep" {
		t.Fatalf("server state after torn requests: %q, %v", got, err)
	}
}

// TestServerDiesMidStream: closing the server while a client holds a
// connection turns in-flight and later calls into prompt errors.
func TestServerDiesMidStream(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial([]string{srv.Addr()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.PutBase(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(0); err == nil {
		t.Fatal("Get against a dead shard succeeded")
	}
	if _, err := client.Lease(0); err == nil {
		t.Fatal("Lease against a dead shard succeeded")
	}
}

// TestServerRejectsMisroutedPartition: a partition outside the shard's
// contiguous range is refused in-band (the connection survives).
func TestServerRejectsMisroutedPartition(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 2, NumPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Shard 0 of 2 over m=8 owns [0,4); partition 5 is misrouted.
	if err := writeFrame(conn, appendU32([]byte{opGet}, 5)); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != statusErr || !strings.Contains(string(resp[1:]), "outside shard") {
		t.Fatalf("misrouted GET answered %v %q", resp[0], resp[1:])
	}
	// The connection is still usable for a correctly routed request.
	if err := writeFrame(conn, appendU32([]byte{opLease}, 2)); err != nil {
		t.Fatal(err)
	}
	if resp, err = readFrame(conn); err != nil {
		t.Fatal(err)
	}
	if resp[0] != statusErr { // no state stored yet — but in-band, not a hangup
		t.Fatalf("lease on empty partition answered status %v", resp[0])
	}
}

// flakyProxy forwards whole frames between a client and a real shard,
// and kills the link — current connections and all future ones — when
// trip() fires. Used by the engine-level injection tests to take a
// shard down deterministically mid-phase-4.
type flakyProxy struct {
	ln      net.Listener
	backend string
	broken  atomic.Bool
	// tripAfterLeases > 0 arms an automatic trip after that many LEASE
	// request frames have been forwarded.
	tripAfterLeases int64
	leases          atomic.Int64
}

func newFlakyProxy(t *testing.T, backend string, tripAfterLeases int64) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, backend: backend, tripAfterLeases: tripAfterLeases}
	go p.acceptLoop()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *flakyProxy) Addr() string { return p.ln.Addr().String() }
func (p *flakyProxy) trip()        { p.broken.Store(true) }
func (p *flakyProxy) heal()        { p.broken.Store(false) }

func (p *flakyProxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.broken.Load() {
			conn.Close()
			continue
		}
		go p.serve(conn)
	}
}

func (p *flakyProxy) serve(client net.Conn) {
	defer client.Close()
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer backend.Close()
	done := make(chan struct{})
	// Responses stream back unframed; requests are re-framed so the
	// proxy can count LEASE frames and cut the link between requests.
	go func() {
		defer close(done)
		io.Copy(client, backend)
	}()
	for {
		if p.broken.Load() {
			return
		}
		frame, err := readFrame(client)
		// Re-check after the blocking read: a request that arrives
		// after trip() must not be forwarded, or its response races
		// the deferred Close.
		if err != nil || p.broken.Load() {
			return
		}
		if len(frame) > 0 && frame[0] == opLease && p.tripAfterLeases > 0 {
			if p.leases.Add(1) > p.tripAfterLeases {
				p.trip()
				return
			}
		}
		if err := writeFrame(backend, frame); err != nil {
			return
		}
	}
}

// TestFlakyProxyForwardsThenTrips: sanity-check the injection harness
// itself — a tripped proxy refuses new work and a healed one serves
// again (through a fresh client; the old connections died with it).
func TestFlakyProxyForwardsThenTrips(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newFlakyProxy(t, srv.Addr(), 0)

	client, err := Dial([]string{proxy.Addr()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PutBase(0, []byte("via-proxy")); err != nil {
		t.Fatal(err)
	}
	proxy.trip()
	if _, err := client.Get(0); err == nil {
		t.Fatal("Get through a tripped proxy succeeded")
	}
	client.Close()

	proxy.heal()
	healed, err := Dial([]string{proxy.Addr()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	got, err := healed.Get(0)
	if err != nil || string(got) != "via-proxy" {
		t.Fatalf("healed proxy: %q, %v", got, err)
	}
}

// TestDecodeCollectItemBoundsPartialCount: a corrupt partial count is
// a decode error, never an allocation the size of the lie.
func TestDecodeCollectItemBoundsPartialCount(t *testing.T) {
	buf := appendU32(nil, 7)         // partition
	buf = appendU32(buf, 0xFFFFFFFF) // claimed partial count
	buf = appendU32(buf, 0)          // base length
	if _, err := decodeCollectItem(buf); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("absurd partial count: %v", err)
	}
}

// requireHangUp sends one raw request frame on a fresh connection to
// addr and fails unless the node hangs up instead of answering.
func requireHangUp(t *testing.T, addr string, req []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := writeFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	if resp, err := readFrame(conn); err == nil {
		t.Fatalf("request %x answered %x, want a hang-up", req, resp)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("request %x: neither answered nor hung up on", req)
	}
}

// TestFixedSizeFramesRefuseTrailingBytes: a fixed-size request with one
// byte past its fields is a malformed frame on a primary and on a
// replica alike, and a client refuses a fixed-size response that
// carries one.
func TestFixedSizeFramesRefuseTrailingBytes(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep, err := NewReplica(ReplicaConfig{Addr: "127.0.0.1:0", Primary: srv.Addr(), Shard: 0, Shards: 1, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	keyed := func(op byte) []byte { return append(appendU32([]byte{op}, 1), 0) }

	t.Run("primary", func(t *testing.T) {
		for _, req := range [][]byte{
			keyed(opGet), keyed(opEpoch), keyed(opGetView), keyed(opNeighbors), keyed(opProfile),
			{opCollect, 0}, {opWatch, 0}, {opStaleness, 0},
		} {
			requireHangUp(t, srv.Addr(), req)
		}
	})
	t.Run("replica", func(t *testing.T) {
		for _, req := range [][]byte{
			keyed(opGet), keyed(opEpoch), keyed(opGetView), keyed(opNeighbors), keyed(opProfile),
		} {
			requireHangUp(t, rep.Addr(), req)
		}
	})
	t.Run("client", func(t *testing.T) {
		answer := func(payload []byte) string {
			return fakeShard(t, func(conn net.Conn) {
				drainRequest(conn)
				writeFrame(conn, append(append([]byte{statusOK}, payload...), 0))
			})
		}
		client, err := DialOptions([]string{answer(appendU64(nil, 7))}, 4, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if token, err := client.Lease(0); err == nil {
			t.Fatalf("LEASE answer with a trailing byte accepted as token %d", token)
		}
		client, err = DialOptions([]string{answer(appendU64(appendU64(nil, 3), 2))}, 4, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if base, view, err := client.Epoch(0); err == nil {
			t.Fatalf("EPOCH answer with a trailing byte accepted as (%d, %d)", base, view)
		}
	})
}
