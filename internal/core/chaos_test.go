package core

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"knnpc/internal/fault"
	"knnpc/internal/netstore"
)

// TestEngineHealsUnderSeededFaults: an engine run over a chaos-wrapped
// store — seeded connection drops, stalls, and torn frames on every
// shard listener — must complete through the client's per-op retries
// and the engine's one ladder above them, one Iterate call per
// iteration, and the committed graph must be byte-identical to the
// fault-free trajectory. The matrix varies the plan seed (different
// fault sequences) and the drop pressure.
func TestEngineHealsUnderSeededFaults(t *testing.T) {
	const users, iters = 250, 2
	base := Options{
		K: 5, NumPartitions: 6, ExecWorkers: 2,
		PrefetchDepth: 2, AsyncWriteback: true, Seed: 11,
		// Tight engine-level backoff: the matrix exercises the retry
		// structure, not the production pacing. The budget is sized for
		// the heaviest row: a COLLECT stream is not retried below the
		// engine, and at 3% drops per I/O nearly half of them die —
		// seven attempts for one iteration have been seen.
		StoreRetries:      30,
		StoreRetryBackoff: time.Millisecond,
	}
	_, refGraph := runEngine(t, base, users, iters)

	for _, tc := range []struct {
		seed int64
		drop float64
		torn float64
	}{
		{seed: 1, drop: 0.01, torn: 0},
		{seed: 2, drop: 0.03, torn: 0.01},
		{seed: 3, drop: 0, torn: 0.03},
	} {
		t.Run(fmt.Sprintf("seed=%d drop=%g torn=%g", tc.seed, tc.drop, tc.torn), func(t *testing.T) {
			plan, err := fault.NewPlan(fault.PlanConfig{
				Seed:      tc.seed,
				DropRate:  tc.drop,
				TornRate:  tc.torn,
				DelayRate: 0.05, MaxDelay: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			cluster, err := netstore.StartClusterOpts(
				[]string{"127.0.0.1:0", "127.0.0.1:0"}, 6, nil,
				netstore.ClusterOptions{
					WrapListener: func(shard int, ln net.Listener) net.Listener {
						return plan.Listener(ln)
					},
				})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			opts := base
			opts.NetStoreAddrs = cluster.Addrs()
			stats, chaosGraph := runEngine(t, opts, users, iters)
			for _, st := range stats {
				t.Logf("iteration %d took %d compute attempts", st.Iteration, st.Attempts)
			}
			if refGraph.DiffEdges(chaosGraph) != 0 {
				t.Fatal("graph under injected faults differs from the fault-free trajectory")
			}
		})
	}
}

// TestEngineRetriesExhaust: when the store stays down past the retry
// budget, Iterate surfaces a real transient-classified error instead
// of hanging — and the memory budget is whole.
func TestEngineRetriesExhaust(t *testing.T) {
	cluster, err := netstore.StartCluster(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 120, 42)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 4, ExecWorkers: 2, Seed: 3,
		NetStoreAddrs:     cluster.Addrs(),
		StoreRetries:      2,
		StoreRetryBackoff: time.Millisecond,
	})
	if err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	defer eng.Close()

	// First iteration against the live store seeds shard state.
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill the store for good: every phase-4 attempt now fails, the
	// retry ladder drains, and the error escapes.
	cluster.Close()
	_, err = eng.Iterate(context.Background())
	if err == nil {
		t.Fatal("Iterate over a dead store reported success")
	}
	if used := eng.budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes leaked through the exhausted retries", used)
	}
}

// TestEngineRetryRespectsCancellation: a context canceled while the
// engine waits out a store-retry backoff aborts promptly with the
// cancellation, not after the full retry ladder.
func TestEngineRetryRespectsCancellation(t *testing.T) {
	cluster, err := netstore.StartCluster(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, 120, 42)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 4, ExecWorkers: 2, Seed: 3,
		NetStoreAddrs:     cluster.Addrs(),
		StoreRetries:      50,
		StoreRetryBackoff: 30 * time.Second,
	})
	if err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	cluster.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Iterate(ctx)
		done <- err
	}()
	// Give the iteration a moment to hit the dead store, then cancel.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled retry loop reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Iterate still blocked 10s after cancellation — the retry backoff ignored ctx")
	}
}
