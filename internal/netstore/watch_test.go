package netstore

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"knnpc/internal/disk"
)

// TestReplicaReadsChargeNoPrimaryRead: reads through a replica across
// many commits add nothing to the primary's modeled device time — the
// view reaches the replica from the primary's memory on the WATCH
// stream, so the only charges on the primary are the PUTs themselves.
func TestReplicaReadsChargeNoPrimaryRead(t *testing.T) {
	model := disk.Model{Name: "unit", SeekLatency: 100 * time.Microsecond, ReadBandwidth: 1 << 30, WriteBandwidth: 1 << 30}
	cluster, client := startCluster(t, 2, 4, &model)
	_, rc := startReplicas(t, cluster, 4)
	primary := cluster.Devices()
	modeled := func() (sum time.Duration) {
		for _, d := range primary {
			m, _, _ := d.Accounting()
			sum += m
		}
		return sum
	}
	for epoch := uint64(1); epoch <= 10; epoch++ {
		for p := uint32(0); p < 4; p++ {
			if err := client.PutBase(p, []byte("base")); err != nil {
				t.Fatal(err)
			}
			if err := client.PutView(p, viewFor(100+p, epoch)); err != nil {
				t.Fatal(err)
			}
		}
		before := modeled()
		for i := 0; i < 5; i++ {
			for p := uint32(0); p < 4; p++ {
				got, _, err := rc.Neighbors(100 + p)
				if err != nil || got != epoch {
					t.Fatalf("epoch %d: replica read of partition %d = epoch %d, %v", epoch, p, got, err)
				}
			}
		}
		if after := modeled(); after != before {
			t.Fatalf("epoch %d: replica reads charged the primaries %v of device time", epoch, after-before)
		}
	}
}

// TestReplicaReadAfterPutSeesEpoch: read-after-commit through a
// replica. A read issued after PutView returns sees exactly that epoch,
// for 40 commits in a row — the read probes the primary's epoch and
// waits for the stream, which the primary fed before acknowledging the
// PUT.
func TestReplicaReadAfterPutSeesEpoch(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const parts, user, home = 4, 77, 0
			cluster, client := startCluster(t, shards, parts, nil)
			_, rc := startReplicas(t, cluster, parts)
			for epoch := uint64(1); epoch <= 40; epoch++ {
				if err := client.PutBase(home, []byte("base")); err != nil {
					t.Fatal(err)
				}
				if err := client.PutView(home, viewFor(user, epoch)); err != nil {
					t.Fatal(err)
				}
				got, ids, err := rc.Neighbors(user)
				if err != nil || got != epoch || len(ids) != 3 || ids[0] != uint32(epoch) {
					t.Fatalf("read after commit %d = epoch %d %v, %v", epoch, got, ids, err)
				}
			}
		})
	}
}

// watchCutter is a primary's listener wrapper that recognises WATCH
// connections by their first request and can cut them: cut closes every
// live one and, while blocked, hangs up on each new one as it
// subscribes. Every other connection passes through untouched.
type watchCutter struct {
	net.Listener
	mu      sync.Mutex
	blocked bool
	live    []net.Conn
}

func (l *watchCutter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &sniffConn{Conn: c, l: l}, nil
}

// cut closes the live WATCH connections and sets whether new ones are
// refused.
func (l *watchCutter) cut(block bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.blocked = block
	for _, c := range l.live {
		c.Close()
	}
	l.live = nil
}

func (l *watchCutter) subscribed(c net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.blocked {
		c.Close()
		return
	}
	l.live = append(l.live, c)
}

// sniffConn watches the first five bytes a connection delivers — the
// first frame's length prefix and opcode.
type sniffConn struct {
	net.Conn
	l    *watchCutter
	head []byte
}

func (c *sniffConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if len(c.head) < 5 {
		c.head = append(c.head, b[:min(n, 5-len(c.head))]...)
		if len(c.head) == 5 && c.head[4] == opWatch {
			c.l.subscribed(c.Conn)
		}
	}
	return n, err
}

// TestReplicaStreamCutDegradesAndCatchesUp: with the replica's stream
// cut at the primary's listener, a read that probes a newer epoch waits
// at most ProbeTimeout and then serves the cached view as degraded; once
// the primary accepts subscriptions again the replica redials on its
// own and the re-subscribe snapshot brings it to the current epoch.
func TestReplicaStreamCutDegradesAndCatchesUp(t *testing.T) {
	cutter := &watchCutter{}
	cluster, err := StartClusterOpts([]string{"127.0.0.1:0"}, 1, nil, ClusterOptions{
		WrapListener: func(_ int, ln net.Listener) net.Listener { cutter.Listener = ln; return cutter },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	client, err := Dial(cluster.Addrs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	commit := func(epoch uint64) {
		t.Helper()
		if err := client.PutBase(0, []byte("base")); err != nil {
			t.Fatal(err)
		}
		if err := client.PutView(0, viewFor(5, epoch)); err != nil {
			t.Fatal(err)
		}
	}
	commit(1)
	rep, err := NewReplica(ReplicaConfig{
		Addr: "127.0.0.1:0", Primary: cluster.Addrs()[0], Shard: 0, Shards: 1, NumPartitions: 1,
		ProbeTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	if epoch, _, err := rep.lookup(5); err != nil || epoch != 1 {
		t.Fatalf("warm read = epoch %d, %v", epoch, err)
	}

	cutter.cut(true)
	commit(2)
	if epoch, _, err := rep.lookup(5); err != nil || epoch != 1 {
		t.Fatalf("read with the stream cut = epoch %d, %v; want the cached epoch 1", epoch, err)
	}
	if rep.Degraded() == 0 {
		t.Fatal("a read served past an undelivered epoch was not counted as degraded")
	}

	cutter.cut(false)
	for attempt := 0; ; attempt++ {
		epoch, _, err := rep.lookup(5)
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 2 {
			break
		}
		if attempt == 100 { // 100 reads of ProbeTimeout each
			t.Fatal("replica never caught up after the primary accepted it again")
		}
	}
	// One snapshot at the first subscribe, one after the redial; the
	// refused subscriptions delivered nothing.
	if pulls := rep.Pulls(); pulls != 2 {
		t.Fatalf("%d view transfers, want 2 (two snapshots of one view)", pulls)
	}
}

// TestWatcherThatNeverReadsIsCutOff: a subscriber that stops reading
// fills its socket and then its queue; the primary then drops it, and
// every PUT completes all the while — a stalled replica never blocks
// the primary.
func TestWatcherThatNeverReadsIsCutOff(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial([]string{srv.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	stalled, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stalled.Close() })
	if err := writeFrame(stalled, []byte{opWatch}); err != nil {
		t.Fatal(err)
	}
	watchers := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.watchers)
	}

	big := EncodeView([]ViewEntry{{User: 1, Profile: make([]byte, 1<<20)}})
	subscribed := false
	for puts := 0; ; puts++ {
		if puts == 1000 {
			t.Fatalf("the stalled watcher survived %d PUTs of 1 MiB views", puts)
		}
		if err := client.PutView(0, big); err != nil {
			t.Fatal(err)
		}
		n := watchers()
		if n == 1 {
			subscribed = true
		}
		if subscribed && n == 0 {
			break
		}
	}
	// The primary keeps installing views after the cut.
	for i := 0; i < 5; i++ {
		if err := client.PutView(0, viewFor(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaFollowsRestartedPrimary: a primary restarted without a
// data directory numbers its epochs from 1 again, below the replica's
// cached epoch. A read must not take the cache for fresh because it is
// ahead: it waits for the restarted primary's view, which the stream's
// re-subscribe delivers.
func TestReplicaFollowsRestartedPrimary(t *testing.T) {
	const parts, user = 2, 9
	cfg := ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: parts}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = srv.Addr()
	client, err := Dial([]string{cfg.Addr}, parts)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer client.Close()
	rs, err := StartReplicas([]string{cfg.Addr}, parts, nil)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer rs.Close()
	rc, err := Dial(rs.Addrs(), parts)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer rc.Close()

	publish := func(epoch uint64) {
		t.Helper()
		if err := client.PutBase(0, []byte("base")); err != nil {
			t.Fatal(err)
		}
		if err := client.PutView(0, viewFor(user, epoch)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(want uint64) {
		t.Helper()
		got, ids, err := rc.Neighbors(user)
		if err != nil || got != want || ids[0] != uint32(want) {
			t.Fatalf("replica read = epoch %d %v, %v; want epoch %d", got, ids, err, want)
		}
	}
	for epoch := uint64(1); epoch <= 5; epoch++ {
		publish(epoch)
	}
	read(5)

	srv.Close()
	srv, err = NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	publish(1)
	read(1)
}
