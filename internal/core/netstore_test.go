package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knnpc/internal/disk"
	"knnpc/internal/netstore"
)

// TestNetStoreMatchesInProcessEngine is the tentpole invariant: the
// engine over the sharded network store must reproduce the in-process
// engine's graph trajectory bit for bit at every (Slots, ExecWorkers,
// shards) combination — workers hold private copies and write mergeable
// partials, and the commutative TopK merge at collect time makes the
// result independent of how residency interleaved. The op accounting is
// also identical: the tape depends only on (Slots, ExecWorkers), not on
// where the store lives.
func TestNetStoreMatchesInProcessEngine(t *testing.T) {
	const users, iters = 300, 3
	base := Options{K: 6, NumPartitions: 8, TupleBatch: 64, Seed: 13}

	for _, slots := range []int{2, 4} {
		ref := base
		ref.Slots = slots
		refStats, refGraph := runEngine(t, ref, users, iters)

		for _, workers := range []int{1, 2, 4} {
			for _, shards := range []int{1, 2, 3} {
				name := fmt.Sprintf("slots=%d workers=%d shards=%d", slots, workers, shards)
				opts := base
				opts.Slots = slots
				opts.ExecWorkers = workers
				opts.NetStoreShards = shards
				opts.PrefetchDepth = 2
				opts.AsyncWriteback = true
				netStats, netGraph := runEngine(t, opts, users, iters)

				if refGraph.DiffEdges(netGraph) != 0 {
					t.Fatalf("%s: network-store engine produced a different KNN graph", name)
				}
				for i := range refStats {
					r, n := refStats[i], netStats[i]
					if r.TuplesScored != n.TuplesScored || r.EdgeChanges != n.EdgeChanges {
						t.Fatalf("%s iter %d: scored=%d changes=%d, in-process scored=%d changes=%d",
							name, i, n.TuplesScored, n.EdgeChanges, r.TuplesScored, r.EdgeChanges)
					}
					if workers == 1 && n.Ops() != r.Ops() {
						t.Fatalf("%s iter %d: %d ops over the netstore, %d in-process — the tape must not depend on the store",
							name, i, n.Ops(), r.Ops())
					}
					var sum int64
					for _, ops := range n.WorkerOps {
						sum += ops
					}
					if sum != n.Ops() {
						t.Fatalf("%s iter %d: per-worker ops sum %d, total %d", name, i, sum, n.Ops())
					}
					if n.MediumReads != n.Loads || n.Attaches != 0 {
						t.Fatalf("%s iter %d: %d reads + %d attaches for %d loads — private copies never attach",
							name, i, n.MediumReads, n.Attaches, n.Loads)
					}
					if n.StateBuilds != 0 || n.CollectReads != int64(n.NumPartitions) {
						t.Fatalf("%s iter %d: %d state builds and %d collect reads over %d partitions — phase 1 PUTs every base and collect reads it",
							name, i, n.StateBuilds, n.CollectReads, n.NumPartitions)
					}
					checkStateAllocs(t, fmt.Sprintf("%s iter %d", name, i), opts, n)
				}
			}
		}
	}
}

// TestNetStoreExternalAddrs drives the engine against manually started
// servers through Options.NetStoreAddrs — the cmd/statestore path — and
// still matches the in-process trajectory.
func TestNetStoreExternalAddrs(t *testing.T) {
	const users, iters = 250, 2
	base := Options{K: 5, NumPartitions: 6, Seed: 7}
	_, refGraph := runEngine(t, base, users, iters)

	cluster, err := netstore.StartCluster(2, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	opts := base
	opts.NetStoreAddrs = cluster.Addrs()
	opts.ExecWorkers = 2
	_, netGraph := runEngine(t, opts, users, iters)
	if refGraph.DiffEdges(netGraph) != 0 {
		t.Fatal("engine over external store addresses diverged from the in-process graph")
	}
}

// TestNetStoreBudgetReleased: every worker-private copy and in-flight
// staging charge is returned to the memory budget by the end of a
// netstore iteration.
func TestNetStoreBudgetReleased(t *testing.T) {
	store := testStore(t, 200, 5)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 6, ExecWorkers: 4, NetStoreShards: 3,
		PrefetchDepth: 2, AsyncWriteback: true,
		MemoryBudget: 1 << 22, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes still reserved after netstore iteration", used)
	}
	if eng.budget.Peak() == 0 {
		t.Fatal("budget never charged")
	}
}

// TestNetStorePerShardDeviceAccounting: with emulation on, the
// engine's IOStats snapshot reports one spindle per shard, each with
// balanced books, after the local spindle when tuple shards spill to
// disk.
func TestNetStorePerShardDeviceAccounting(t *testing.T) {
	for _, onDisk := range []bool{false, true} {
		store := testStore(t, 150, 3)
		opts := Options{
			K: 4, NumPartitions: 6, ExecWorkers: 2, NetStoreShards: 2,
			EmulateDisk: &disk.NVMe, Seed: 1,
		}
		if onDisk {
			opts.OnDisk, opts.ScratchDir = true, t.TempDir()
		}
		eng, err := New(store, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.Iterate(context.Background()); err != nil {
			t.Fatal(err)
		}
		devs := eng.IOStats().Devices
		if onDisk {
			if len(devs) == 0 || devs[0].Name != "spindle" {
				t.Fatalf("ondisk: first device entry is not the local spindle: %+v", devs)
			}
			if d := devs[0]; d.Slept+d.Debt != d.Modeled {
				t.Fatalf("ondisk: spindle slept %v + debt %v != modeled %v", d.Slept, d.Debt, d.Modeled)
			}
			devs = devs[1:]
		}
		if len(devs) != 2 {
			t.Fatalf("ondisk=%v: %d shard device entries, want one per shard (2): %+v", onDisk, len(devs), devs)
		}
		for _, d := range devs {
			if !strings.HasPrefix(d.Name, "shard") {
				t.Fatalf("device %q not shard-named", d.Name)
			}
			if d.Modeled == 0 {
				t.Fatalf("%s never charged — state I/O missed the shard spindle", d.Name)
			}
			if d.Slept+d.Debt != d.Modeled {
				t.Fatalf("%s: slept %v + debt %v != modeled %v", d.Name, d.Slept, d.Debt, d.Modeled)
			}
		}
	}
}

// TestNetOwnerStaleLeaseWriteBack: the engine's lease client surfaces
// the store's fencing rejection — a write-back whose token was revoked
// by a new epoch fails with ErrStaleLease and the budget charge is
// still returned (the stale copy is gone either way).
func TestNetOwnerStaleLeaseWriteBack(t *testing.T) {
	cluster, err := netstore.StartCluster(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := netstore.Dial(cluster.Addrs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	st0 := newTestPartState(t, 0, 4, unitProfiles(1, 2, 3))
	blob := st0.encode()
	if err := client.PutBase(0, blob); err != nil {
		t.Fatal(err)
	}

	budget := disk.NewBudget(1 << 20)
	var stats disk.IOStats
	owner := newNetOwner(client, budget, &stats, 4)
	held, _, err := owner.acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	held.accs[0].Push(99, 0.5)

	// A new base PUT (the next epoch's phase 1) revokes the lease.
	if err := client.PutBase(0, blob); err != nil {
		t.Fatal(err)
	}
	err = owner.release(0, 0, true)
	if !errors.Is(err, netstore.ErrStaleLease) {
		t.Fatalf("stale write-back returned %v, want ErrStaleLease", err)
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes leaked through the stale write-back", used)
	}

	// The rejected partial must not have contaminated the store.
	count := 0
	err = client.Collect(func(it netstore.CollectItem) error {
		count += len(it.Partials)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("%d partials stored despite the fencing rejection", count)
	}
}

// TestNetStoreShardDiesMidPhase4 mirrors PR 3's injection matrix for
// the network path: a shard that dies mid-load must surface a real
// error from Iterate, drain every in-flight worker, release the full
// memory budget — and a retry against the healed shard must reproduce
// the uninterrupted engine's graph exactly.
func TestNetStoreShardDiesMidPhase4(t *testing.T) {
	const users = 300
	base := Options{
		K: 6, NumPartitions: 8, ExecWorkers: 2,
		PrefetchDepth: 2, AsyncWriteback: true,
		MemoryBudget: 1 << 24, Seed: 23,
		// The shard stays down, so every retry is spent; don't spend the
		// production pacing on them too.
		StoreRetries: 1, StoreRetryBackoff: time.Millisecond,
	}
	refOpts := base
	refStats, refGraph := runEngine(t, refOpts, users, 2)
	_ = refStats

	// Shard 1 goes down — every request on every connection dies — once
	// it has seen its 2nd LEASE, which lands inside the phase-4 tape
	// (phase 1 PUTs carry no leases). Shard 0 is untouched.
	var leases atomic.Int32
	down := &cutter{match: func(f []byte) bool {
		if isOp(wireLease)(f) {
			leases.Add(1)
		}
		return leases.Load() > 2
	}}
	down.arm(1 << 30)
	cluster, err := netstore.StartClusterOpts([]string{"127.0.0.1:0", "127.0.0.1:0"}, 8, nil,
		netstore.ClusterOptions{WrapListener: func(shard int, ln net.Listener) net.Listener {
			if shard == 1 {
				return down.wrap(ln)
			}
			return ln
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	store := testStore(t, users, 42)
	opts := base
	opts.NetStoreAddrs = cluster.Addrs()
	eng, err := New(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Iteration 0: the shard dies mid-phase-4 and stays dead.
	_, err = eng.Iterate(context.Background())
	if err == nil {
		t.Fatal("iteration with a dying shard returned no error")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("real shard failure surfaced as bare cancellation: %v", err)
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d staged budget bytes leaked by the aborted netstore iteration", used)
	}

	// Heal the shard and run a fresh engine against it — the
	// cross-process story is a restarted worker. State on the shards is
	// rebuilt by phase 1 either way.
	down.arm(0)
	eng2, err := New(testStore(t, users, 42), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	for i := 0; i < 2; i++ {
		if _, err := eng2.Iterate(context.Background()); err != nil {
			t.Fatalf("iteration %d after healing: %v", i, err)
		}
	}
	if refGraph.DiffEdges(eng2.Graph()) != 0 {
		t.Fatal("graph after shard death and retry differs from the uninterrupted trajectory")
	}
	if used := eng2.budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes still reserved after recovery", used)
	}
}

// TestNetStoreOptionValidation rejects nonsensical store configs.
func TestNetStoreOptionValidation(t *testing.T) {
	store := testStore(t, 30, 1)
	if _, err := New(store, Options{K: 3, NetStoreShards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := New(store, Options{K: 3, NetStoreShards: 2, NetStoreAddrs: []string{"x"}}); err == nil {
		t.Error("NetStoreShards together with NetStoreAddrs accepted")
	}
	if _, err := New(store, Options{K: 3, NumPartitions: 4, NetStoreShards: 5}); err == nil {
		t.Error("more shards than partitions accepted")
	}
	if _, err := New(store, Options{K: 3, NetStoreAddrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("dial of a dead address succeeded")
	}
}

// TestPartialCodecRoundTrip: the worker-partial encoding carries
// exactly the non-empty accumulators and merges back losslessly;
// corrupt partials are rejected with descriptive errors.
func TestPartialCodecRoundTrip(t *testing.T) {
	st := newTestPartState(t, 3, 4, unitProfiles(10, 11, 12))
	st.accs[0].Push(7, 0.9)
	st.accs[0].Push(8, 0.8)
	st.accs[2].Push(5, 0.1)
	blob := st.encodePartial()

	fresh := newTestPartState(t, 3, 4, unitProfiles(10, 11, 12))
	if err := fresh.mergePartial(blob); err != nil {
		t.Fatal(err)
	}
	if got := fresh.accs[0].IDs(); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("member 10 merged to %v", got)
	}
	if fresh.accs[1].Len() != 0 {
		t.Fatal("member 11 grew candidates from an empty partial")
	}
	if got := fresh.accs[2].IDs(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("member 12 merged to %v", got)
	}

	for name, corrupt := range map[string][]byte{
		"short header":   {1, 0},
		"unknown member": append([]byte{1, 0, 0, 0, 99, 0, 0, 0}, st.accs[0].AppendBinary(nil)...),
		"truncated":      blob[:len(blob)-2],
		"trailing":       append(append([]byte{}, blob...), 0xFF),
	} {
		again := newTestPartState(t, 3, 4, unitProfiles(10, 11, 12))
		if err := again.mergePartial(corrupt); err == nil {
			t.Errorf("%s partial accepted", name)
		}
	}
}
