package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"knnpc/internal/disk"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// Wire values the cutter matches on, as docs/PROTOCOL.md lists them
// (netstore's TestProtocolDocMatchesCode pins that table to the code).
const (
	wireGet      = 0x01
	wirePut      = 0x02
	wireLease    = 0x03
	wireCollect  = 0x05
	wireDrainUpd = 0x0c
	wireDrainMut = 0x0f

	wireKindBase      = 0x00
	wireKindPartial   = 0x01
	wireKindView      = 0x02
	wireKindDeltaView = 0x03
	wireKindStale     = 0x04
)

// isPut matches a PUT request frame of the given kind: opcode,
// partition u32, kind byte.
func isPut(kind byte) func([]byte) bool {
	return func(f []byte) bool { return len(f) > 5 && f[0] == wirePut && f[5] == kind }
}

// isOp matches a request frame by opcode.
func isOp(op byte) func([]byte) bool {
	return func(f []byte) bool { return len(f) > 0 && f[0] == op }
}

// nth matches only the n-th frame match accepts while the cutter is
// armed (an unarmed cutter never asks).
func nth(n int32, match func([]byte) bool) func([]byte) bool {
	var seen atomic.Int32
	return func(f []byte) bool { return match(f) && seen.Add(1) == n }
}

var errCut = errors.New("heal test: connection cut")

// cutter is the fault one test row injects, behind the same seam the
// seeded fault plans use (ServerConfig.WrapListener) — a plan draws
// per-I/O decisions and cannot aim at one exchange, this can. Once
// armed it fails the next `times` request frames that match: either
// the request itself, which the shard then never sees, or — with
// deliver — the response, after `writes` Write calls of it got out (a
// response frame is two: length prefix, then payload).
type cutter struct {
	match   func(frame []byte) bool
	deliver bool
	writes  int
	then    func() // runs as each cut lands

	left  atomic.Int32 // cuts still to make; armed while positive
	fired atomic.Int32 // cuts made
}

// arm makes the next times matching requests fail.
func (c *cutter) arm(times int32) { c.left.Store(times) }

func (c *cutter) hits(frame []byte) bool {
	if c.left.Load() <= 0 || !c.match(frame) || c.left.Add(-1) < 0 {
		return false
	}
	c.fired.Add(1)
	if c.then != nil {
		c.then()
	}
	return true
}

func (c *cutter) wrap(ln net.Listener) net.Listener { return &cutListener{Listener: ln, cut: c} }

type cutListener struct {
	net.Listener
	cut *cutter
}

func (l *cutListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: conn, cut: l.cut}, nil
}

// cutConn is the shard's side of one connection. It reads whole request
// frames off the wire before handing any byte to the shard, so a cut
// request is never seen half. The shard serves a connection from one
// goroutine, so the fields need no lock.
type cutConn struct {
	net.Conn
	cut     *cutter
	pending []byte // a whole request frame, not yet fully handed over
	doomed  bool   // the current request's response is to be cut
	writes  int    // response Write calls still let through when doomed
}

func (c *cutConn) Read(b []byte) (int, error) {
	if len(c.pending) == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(c.Conn, hdr[:]); err != nil {
			return 0, err
		}
		frame := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(c.Conn, frame[4:]); err != nil {
			return 0, err
		}
		if c.cut.hits(frame[4:]) {
			if !c.cut.deliver {
				c.Conn.Close()
				return 0, errCut
			}
			c.doomed, c.writes = true, c.cut.writes
		}
		c.pending = frame
	}
	n := copy(b, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (c *cutConn) Write(b []byte) (int, error) {
	if c.doomed {
		if c.writes == 0 {
			c.Conn.Close()
			return 0, errCut
		}
		c.writes--
	}
	return c.Conn.Write(b)
}

// healCluster is two durable shards over six partitions, each behind
// the cutter and on its own (fast) emulated device, started one by one
// so a row can restart shard 1 under a running iteration.
type healCluster struct {
	cfgs    [2]netstore.ServerConfig
	servers [2]*netstore.Server
}

const healPartitions = 6

func startHealCluster(t *testing.T, cut *cutter) *healCluster {
	t.Helper()
	c := &healCluster{}
	for i := range c.cfgs {
		c.cfgs[i] = netstore.ServerConfig{
			Addr: "127.0.0.1:0", Shard: i, Shards: 2, NumPartitions: healPartitions,
			Device:       disk.NewNamedDevice(disk.NVMe, fmt.Sprintf("shard%d", i)),
			DataDir:      t.TempDir(),
			WrapListener: cut.wrap,
		}
		srv, err := netstore.NewServer(c.cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		c.servers[i] = srv
		c.cfgs[i].Addr = srv.Addr() // a restart comes back where clients look for it
	}
	t.Cleanup(func() {
		for _, srv := range c.servers {
			srv.Close()
		}
	})
	return c
}

func (c *healCluster) addrs() []string { return []string{c.cfgs[0].Addr, c.cfgs[1].Addr} }

// healOpts is the engine every row and the reference run share.
var healOpts = Options{
	K: 5, NumPartitions: healPartitions, ExecWorkers: 2,
	PrefetchDepth: 2, AsyncWriteback: true, Seed: 11,
	StoreRetries: 8, StoreRetryBackoff: 2 * time.Millisecond,
}

const healUsers = 250

// newHealEngine starts the shared heal engine over cluster with
// published views and the given retry budget. Unless ownRetries, its
// store client makes one attempt per op, so a failed exchange goes
// straight up to the engine's ladder.
func newHealEngine(t *testing.T, cluster *healCluster, retries int, ownRetries bool) *Engine {
	t.Helper()
	opts := healOpts
	opts.NetStoreAddrs = cluster.addrs()
	opts.PublishViews = true
	opts.StoreRetries = retries
	eng, err := New(testStore(t, healUsers, 42), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if !ownRetries {
		eng.netClient.Close()
		eng.netClient, err = netstore.DialOptions(cluster.addrs(), healPartitions, netstore.ClientOptions{MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// checkServed asserts the store's published views answer each of users
// with the engine's committed neighbor list.
func checkServed(t *testing.T, front *netstore.Client, eng *Engine, users ...uint32) {
	t.Helper()
	g := eng.Graph()
	for _, u := range users {
		want := g.Neighbors(u)
		if _, ids, err := front.Neighbors(u); err != nil || fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Errorf("the store serves user %d as %v, %v; committed %v", u, ids, err, want)
		}
	}
}

// TestIterateHealsEveryStoreExchange: one row per exchange an iteration
// has with the store, each failed once in the second of two iterations.
// Whatever fails, a single Iterate call returns having healed it through
// the engine's one ladder; the graph is the fault-free one, exactly one
// epoch was committed per call, the pushed update was applied once, the
// publish landed, and no budget byte leaked. Failures before the commit
// restart the compute (Attempts > 1); a failed drain or publish
// re-issues that exchange only.
func TestIterateHealsEveryStoreExchange(t *testing.T) {
	_, refGraph := runEngine(t, healOpts, healUsers, 2)

	for _, row := range []struct {
		name string
		cut  *cutter
		// devFault fails shard 0's next device write instead of cutting a
		// frame: the shard answers RETRY before applying the base PUT.
		devFault bool
		// restart bounces shard 1 as the cut lands: its lease table is
		// gone when the worker's write-back is retried.
		restart bool
		// ownRetries leaves the client its per-op ladder (the restart row
		// needs the redial); otherwise a failed exchange goes straight up
		// to the engine.
		ownRetries bool
		restarts   bool // the fault precedes the commit: compute restarts
	}{
		{name: "phase 1 PutBase", cut: &cutter{match: isPut(wireKindBase)}, restarts: true},
		{name: "phase 1 PutBase refused by the device", devFault: true, restarts: true},
		{name: "phase 4 Lease", cut: &cutter{match: isOp(wireLease)}, restarts: true},
		{name: "phase 4 Get", cut: &cutter{match: isOp(wireGet)}, restarts: true},
		{name: "phase 4 PutPartial", cut: &cutter{match: isPut(wireKindPartial)}, restarts: true},
		// The partial is stored, only its answer is lost: the restart's
		// base PUT has to drop it, or it is merged twice.
		{name: "phase 4 PutPartial answer lost", cut: &cutter{match: isPut(wireKindPartial), deliver: true}, restarts: true},
		{name: "COLLECT cut mid-stream", cut: &cutter{match: isOp(wireCollect), deliver: true, writes: 2}, restarts: true},
		{name: "stale lease after a shard restart", restart: true, ownRetries: true, restarts: true,
			cut: &cutter{match: func(f []byte) bool {
				return isPut(wireKindPartial)(f) && binary.BigEndian.Uint32(f[1:]) >= healPartitions/2
			}}},
		{name: "phase 5 DRAINUPD", cut: &cutter{match: isOp(wireDrainUpd)}},
		{name: "publish PutView", cut: &cutter{match: isPut(wireKindView)}},
		{name: "publish PutStaleness", cut: &cutter{match: isPut(wireKindStale)}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cut := row.cut
			if cut == nil {
				cut = &cutter{match: func([]byte) bool { return false }}
			}
			cluster := startHealCluster(t, cut)
			restarted := make(chan *netstore.Server, 1)
			if row.restart {
				cut.then = func() {
					go func() {
						cluster.servers[1].Close()
						srv, err := netstore.NewServer(cluster.cfgs[1])
						if err != nil {
							t.Errorf("restart shard 1: %v", err)
						}
						restarted <- srv
					}()
				}
			}

			eng := newHealEngine(t, cluster, healOpts.StoreRetries, row.ownRetries)
			front, err := netstore.Dial(cluster.addrs(), healPartitions)
			if err != nil {
				t.Fatal(err)
			}
			defer front.Close()

			if _, err := eng.Iterate(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := front.PushUpdates([]profile.Update{{User: 7, Kind: profile.SetItem, Item: 3, Weight: 2}}); err != nil {
				t.Fatal(err)
			}
			cut.arm(1)
			var devFired atomic.Bool
			if row.devFault {
				cluster.cfgs[0].Device.SetFaultHook(func(kind disk.AccessKind, _ int64) (time.Duration, error) {
					if kind == disk.AccessWrite && devFired.CompareAndSwap(false, true) {
						return 0, errors.New("injected device fault")
					}
					return 0, nil
				})
			}

			st, err := eng.Iterate(context.Background())
			if cut.fired.Load() == 0 && !devFired.Load() {
				t.Fatal("the fault never fired; the row tested nothing")
			}
			if row.restart {
				if srv := <-restarted; srv != nil {
					cluster.servers[1] = srv
				}
			}
			if err != nil {
				t.Fatalf("one Iterate call did not heal the fault: %v", err)
			}
			if row.restarts && st.Attempts < 2 {
				t.Errorf("healed in %d compute attempt, want a restart", st.Attempts)
			}
			if !row.restarts && st.Attempts != 1 {
				t.Errorf("a post-compute fault cost %d compute attempts, want 1", st.Attempts)
			}
			if d := refGraph.DiffEdges(eng.Graph()); d != 0 {
				t.Errorf("healed graph differs from the fault-free one in %d edges", d)
			}
			if eng.Epoch() != 2 || st.Iteration != 1 {
				t.Errorf("after 2 calls: epoch %d, last iteration index %d; want 2 and 1", eng.Epoch(), st.Iteration)
			}
			if st.UpdatesApplied != 1 {
				t.Errorf("%d updates applied, want the 1 pushed", st.UpdatesApplied)
			}
			if used := eng.budget.Used(); used != 0 {
				t.Errorf("%d budget bytes leaked", used)
			}
			if doc, ok, err := front.Staleness(); err != nil || !ok || doc.LastFullEpoch != 2 {
				t.Errorf("published staleness = %+v, %v, %v; want last full epoch 2", doc, ok, err)
			}
			checkServed(t, front, eng, 0)
		})
	}
}

// TestIterateCommitThenPublishFails: a publish that stays down past the
// retry budget happens after the commit, so Iterate must say so — stats
// plus ErrPublishFailed, iteration count and epoch advanced — instead of
// reporting a failed iteration that a caller would run, and commit, a
// second time. The next iteration republishes every view.
func TestIterateCommitThenPublishFails(t *testing.T) {
	const iters = 3
	_, refGraph := runEngine(t, healOpts, healUsers, iters)

	cut := &cutter{match: isPut(wireKindView)}
	cluster := startHealCluster(t, cut)
	const retries = 2
	eng := newHealEngine(t, cluster, retries, false)

	for i := 0; i < iters; i++ {
		if i == 1 {
			cut.arm(retries + 1)
		}
		st, err := eng.Iterate(context.Background())
		if i == 1 {
			if !errors.Is(err, ErrPublishFailed) || !netstore.IsTransient(err) {
				t.Fatalf("iteration 1 with its publish down returned %v; want ErrPublishFailed over the transient cause", err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if st == nil || st.Iteration != i || eng.Epoch() != uint64(i+1) {
			t.Fatalf("call %d: stats %v, epoch %d; want iteration %d committed as epoch %d", i, st, eng.Epoch(), i, i+1)
		}
	}
	if d := refGraph.DiffEdges(eng.Graph()); d != 0 {
		t.Errorf("graph differs from the fault-free one in %d edges", d)
	}
	front, err := netstore.Dial(cluster.addrs(), healPartitions)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	checkServed(t, front, eng, 0)
}

// deltaHeal is one run of TestApplyDeltasHealsEveryStoreExchange: an
// engine over the heal cluster that has run one iteration and one delta
// pass, and the front end that pushes its mutations and reads its views.
type deltaHeal struct {
	eng   *Engine
	front *netstore.Client
	cut   *cutter
}

// newDeltaHeal runs the iteration and the first, fault-free delta pass,
// which adds user healUsers through the store.
func newDeltaHeal(t *testing.T, cut *cutter, retries int) *deltaHeal {
	t.Helper()
	cluster := startHealCluster(t, cut)
	eng := newHealEngine(t, cluster, retries, false)
	front, err := netstore.Dial(cluster.addrs(), healPartitions)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	h := &deltaHeal{eng: eng, front: front, cut: cut}
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.push(t, healUsers, 0)
	if _, err := eng.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	return h
}

// push journals an add (or upsert) of user u on its owning shard, with
// the i-th profile of a small second dataset.
func (h *deltaHeal) push(t *testing.T, u uint32, i uint32) {
	t.Helper()
	if err := h.front.AddUser(u, testStore(t, 4, 7).Get(i).AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
}

// secondPass is the pass the rows cut: it adds user healUsers+1, whose
// mutation journals on shard 1, and upserts user healUsers, whose
// journals on shard 0.
func (h *deltaHeal) secondPass(t *testing.T, cuts int32) (*DeltaStats, error) {
	t.Helper()
	h.push(t, healUsers+1, 1)
	h.push(t, healUsers, 2)
	h.cut.arm(cuts)
	ds, err := h.eng.ApplyDeltas()
	if h.cut.fired.Load() == 0 {
		t.Fatal("the fault never fired; the row tested nothing")
	}
	return ds, err
}

// TestApplyDeltasHealsEveryStoreExchange: one row per exchange a delta
// pass has with the store, each failed once in the second of two passes.
// ApplyDeltas heals it through Iterate's ladder: the pass commits once
// (one epoch, the added user appended once, the upsert from the shard
// that answered a cut drain kept), the graph is the fault-free one, and
// the published view serves the added user. A publish that stays down
// past the budget returns the committed pass's stats with
// ErrPublishFailed, and the next pass republishes what it missed.
func TestApplyDeltasHealsEveryStoreExchange(t *testing.T) {
	never := &cutter{match: func([]byte) bool { return false }}
	ref := newDeltaHeal(t, never, healOpts.StoreRetries)
	if _, err := ref.eng.ApplyDeltas(); err != nil {
		t.Fatal(err) // nothing queued: a no-op
	}
	ref.push(t, healUsers+1, 1)
	ref.push(t, healUsers, 2)
	if _, err := ref.eng.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	refGraph := ref.eng.Graph()
	added := uint32(healUsers + 1)

	for _, row := range []struct {
		name string
		cut  *cutter
	}{
		// Shard 0 answers with the upsert, shard 1's drain is cut before
		// the shard sees it: the re-issue must keep the upsert.
		{name: "DRAINMUT", cut: &cutter{match: nth(2, isOp(wireDrainMut))}},
		{name: "PutDeltaView", cut: &cutter{match: isPut(wireKindDeltaView)}},
		{name: "PutStaleness", cut: &cutter{match: isPut(wireKindStale)}},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := newDeltaHeal(t, row.cut, healOpts.StoreRetries)
			ds, err := h.secondPass(t, 1)
			if err != nil {
				t.Fatalf("one ApplyDeltas call did not heal the fault: %v", err)
			}
			if ds.Adds != 1 || ds.Upserts != 1 {
				t.Errorf("healed pass reported %+v, want 1 add and 1 upsert", ds)
			}
			if n := h.eng.Graph().NumNodes(); n != healUsers+2 {
				t.Errorf("%d users after the healed pass, want %d", n, healUsers+2)
			}
			if d := refGraph.DiffEdges(h.eng.Graph()); d != 0 {
				t.Errorf("healed graph differs from the fault-free one in %d edges", d)
			}
			if e := h.eng.Epoch(); e != 3 {
				t.Errorf("epoch %d after an iteration and two passes, want 3", e)
			}
			if doc, ok, err := h.front.Staleness(); err != nil || !ok || doc.Users != healUsers+2 {
				t.Errorf("published staleness = %+v, %v, %v; want %d users", doc, ok, err, healUsers+2)
			}
			checkServed(t, h.front, h.eng, added, healUsers)
		})
	}

	t.Run("PutDeltaView past the budget", func(t *testing.T) {
		const retries = 2
		h := newDeltaHeal(t, &cutter{match: isPut(wireKindDeltaView)}, retries)
		ds, err := h.secondPass(t, retries+1)
		if !errors.Is(err, ErrPublishFailed) || !netstore.IsTransient(err) {
			t.Fatalf("pass with its publish down returned %v; want ErrPublishFailed over the transient cause", err)
		}
		if ds == nil || ds.Adds != 1 || ds.Upserts != 1 || ds.Republished != 0 {
			t.Fatalf("committed pass reported %+v, want 1 add, 1 upsert, nothing republished", ds)
		}
		if e := h.eng.Epoch(); e != 3 {
			t.Fatalf("epoch %d after the failed publish, want the commit's 3", e)
		}
		if d := refGraph.DiffEdges(h.eng.Graph()); d != 0 {
			t.Errorf("graph differs from the fault-free one in %d edges", d)
		}

		// The next pass republishes every view the failed one missed, not
		// only the ones its own mutation touches.
		h.push(t, added, 3)
		ds, err = h.eng.ApplyDeltas()
		if err != nil {
			t.Fatal(err)
		}
		if ds.Republished == 0 {
			t.Error("the next pass republished nothing")
		}
		all := make([]uint32, h.eng.Graph().NumNodes())
		for u := range all {
			all[u] = uint32(u)
		}
		checkServed(t, h.front, h.eng, all...)
	})
}
