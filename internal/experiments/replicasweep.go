package experiments

import (
	"context"
	"fmt"
	"time"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/load"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// ReplicaPoint is one rung of the FW-10 replica-count sweep: the
// merged read latency the fixed Zipfian workload observed against a
// given number of replica sets.
type ReplicaPoint struct {
	// Label names the rung (e.g. "replicas=2/skew=1.10").
	Label string
	// Replicas is the number of replica sets behind the round-robin
	// target; 0 means the workload read the primaries directly.
	Replicas int
	// Skew is the Zipf exponent s of the rung's read plan.
	Skew float64
	// Ops is the number of read operations the rung served.
	Ops uint64
	// Misses counts not-in-any-published-view answers. A full
	// commit's publish keeps every live user in some view at every
	// step, so on either tier a miss means a user no commit has
	// published yet or one that was deleted.
	Misses uint64
	// P50 and P99 are the merged read percentiles — the worse of the
	// neighbors and profile op kinds, matching knnload's table.
	P50, P99 time.Duration
}

// ReplicaSweep runs the FW-10 sweep: fixed-seed Zipfian read plans
// (open loop) replayed against the serving tier at increasing
// replica-set counts, while the engine iterates phase 4 underneath on
// emulated HDD spindles. The 0-replica rung reads the primaries
// directly — lookups queue behind live phase-4 state I/O on the same
// spindles — and each r>0 rung round-robins the identical plan across
// r replica sets that answer from their view caches.
//
// The sweep is two-dimensional: every replica count is measured at
// every Zipf exponent in skews (plans differ only in skew — same
// seed, same rate, same op count). The skew dimension answers the
// FW-10 leftover directly: the client's shard hint cache only pays
// off when the same hot users repeat, so as s falls toward uniform
// traffic the replica rungs' advantage should flatten — the table
// shows where adding replicas (and caching hints) stops helping.
func ReplicaSweep(ctx context.Context, users int, replicaCounts []int, skews []float64, ops int) ([]ReplicaPoint, error) {
	const partitions = 8
	if len(skews) == 0 {
		return nil, fmt.Errorf("experiments: replica sweep needs at least one skew")
	}
	vecs, _, err := dataset.RatingsProfiles(users, 4*users, 25, 8, 1)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(profile.NewStoreFromVectors(vecs), core.Options{
		K:              10,
		NumPartitions:  partitions,
		Workers:        2,
		ExecWorkers:    2,
		Slots:          2,
		PrefetchDepth:  2,
		AsyncWriteback: true,
		NetStoreShards: 2,
		PublishViews:   true,
		OnDisk:         true,
		EmulateDisk:    &disk.HDD,
		Seed:           1,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	// The warmup iteration publishes the first serve views, so no rung
	// starts against an empty serving tier.
	if _, err := eng.Iterate(ctx); err != nil {
		return nil, err
	}
	points := make([]ReplicaPoint, 0, len(replicaCounts)*len(skews))
	for _, r := range replicaCounts {
		for _, skew := range skews {
			plan, err := load.BuildPlan(load.PlanConfig{
				Users: users, Items: 500, Ops: ops,
				Rate: 1000, Skew: skew, ProfileFrac: 0.3,
				Seed: 1,
			})
			if err != nil {
				return nil, err
			}
			p, err := replicaRung(ctx, eng, plan, partitions, r, skew)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// replicaRung measures one replica count: it assembles the read
// target (primaries, or r round-robined replica sets following
// them), replays the plan open-loop while the engine keeps iterating,
// and reports the merged read percentiles.
func replicaRung(ctx context.Context, eng *core.Engine, plan []load.Op, partitions, r int, skew float64) (ReplicaPoint, error) {
	point := ReplicaPoint{
		Label:    fmt.Sprintf("replicas=%d/skew=%.2f", r, skew),
		Replicas: r,
		Skew:     skew,
	}
	var target load.Target
	if r == 0 {
		t, err := load.NewDirectTarget(point.Label, eng.StoreAddrs(), partitions)
		if err != nil {
			return point, err
		}
		target = t
	} else {
		// Each StartReplicas call is one full replica set (one replica
		// per primary shard, same emulated disk model as the engine's
		// own loopback replicas); the round-robin target is the
		// client-side load balancer across the sets.
		var sets []*netstore.ReplicaSet
		closeSets := func() {
			for _, s := range sets {
				s.Close()
			}
		}
		backends := make([]load.Target, 0, r)
		for i := 0; i < r; i++ {
			rs, err := netstore.StartReplicas(eng.StoreAddrs(), partitions, &disk.HDD)
			if err != nil {
				closeSets()
				return point, err
			}
			sets = append(sets, rs)
			t, err := load.NewDirectTarget(fmt.Sprintf("%s/set%d", point.Label, i), rs.Addrs(), partitions)
			if err != nil {
				closeSets()
				return point, err
			}
			backends = append(backends, t)
		}
		rr, err := load.NewRoundRobinTarget(point.Label, backends)
		if err != nil {
			closeSets()
			return point, err
		}
		target = rr
		defer closeSets()
	}
	defer target.Close()

	// Keep the engine iterating for the whole replay so the measured
	// reads contend with (primaries) or hide from (replicas) live
	// phase-4 I/O — the contrast the sweep exists to show.
	stop := make(chan struct{})
	engDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				engDone <- nil
				return
			default:
			}
			if _, err := eng.Iterate(ctx); err != nil {
				engDone <- err
				return
			}
		}
	}()
	res, err := load.Run(ctx, target, plan, load.RunConfig{Concurrency: 8})
	close(stop)
	if engErr := <-engDone; engErr != nil {
		return point, engErr
	}
	if err != nil {
		return point, err
	}
	if n := res.Errors(); n > 0 {
		return point, fmt.Errorf("experiments: %d protocol errors at %s (first: %s)",
			n, point.Label, res.Kinds[load.Neighbors].FirstError)
	}
	point.Ops = res.Ops()
	point.Misses = res.Misses()
	point.P50 = max(res.Kinds[load.Neighbors].P50, res.Kinds[load.Profile].P50)
	point.P99 = max(res.Kinds[load.Neighbors].P99, res.Kinds[load.Profile].P99)
	return point, nil
}
