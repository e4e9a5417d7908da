package main

import (
	"context"
	"fmt"
	"time"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/delta"
	"knnpc/internal/profile"
)

const (
	churnBase = 4000 // users the graph starts with
	churnPool = 4000 // users waiting to be added, same generator
	// Each round enqueues this many sequential adds and, from round
	// churnDelFrom on, this many deletes of the oldest added users.
	churnAdds    = 16
	churnDels    = 8
	churnDelFrom = 4
	// churnWarmup full iterations run before the first mutation, so the
	// delta path searches a graph that has begun to converge.
	churnWarmup = 3
	// churnRoundsPerSecond turns -seconds into the round count.
	churnRoundsPerSecond = 4.5
	// batchSLO is the limit an ApplyDeltas batch must commit within.
	batchSLO = 25 * time.Millisecond
	// churnRecallFloor is the recall the final graph must reach at
	// run_seconds.
	churnRecallFloor = 0.65
)

func churnOpts() core.Options {
	opts := iterHDD.opts
	opts.StalenessThreshold = 0.25
	return opts
}

func runChurn(rc runConfig) (*runResult, error) {
	ctx := context.Background()
	res := newResult(rc)
	all, _, err := dataset.RatingsProfiles(churnBase+churnPool, 4*churnBase, 25, 8, rc.seed)
	if err != nil {
		return nil, err
	}
	base, pool := all[:churnBase], all[churnBase:]
	// One set-up costs three full iterations here; two of them keep the
	// run inside the driver's time budget.
	rc.setups = min(rc.setups, 2)

	st, setupS, err := setupEngines(rc, func(scratch string) (iterState, func(), error) {
		opts := churnOpts()
		opts.Seed = rc.seed
		opts.ScratchDir = scratch
		store := profile.NewStoreFromVectors(append([]profile.Vector(nil), base...))
		eng, err := core.New(store, opts)
		if err != nil {
			return iterState{}, nil, err
		}
		for range churnWarmup {
			if _, err := eng.Iterate(ctx); err != nil {
				eng.Close()
				return iterState{}, nil, err
			}
		}
		return iterState{eng: eng, store: store, opts: opts}, func() { eng.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.eng.Close()

	rounds := min(max(8, int(rc.seconds*churnRoundsPerSecond)), churnPool/churnAdds)
	var (
		iters                      []iterSample
		batches                    []float64 // ms
		committed, adds            int
		simEvals, touched, inLimit int
		nextAdd, nextDel           = uint32(churnBase), uint32(churnBase)
		dead                       = make(map[uint32]bool)
	)
	w := openWindow()
	for r := 0; r < rounds; r++ {
		wantAdds, wantDels := churnAdds, 0
		for range churnAdds {
			st.eng.EnqueueAddUser(nextAdd, pool[nextAdd-churnBase])
			nextAdd++
		}
		if r >= churnDelFrom {
			wantDels = churnDels
			for range churnDels {
				st.eng.EnqueueDelUser(nextDel)
				dead[nextDel] = true
				nextDel++
			}
		}
		res.Attempted += wantAdds + wantDels
		start := time.Now()
		ds, err := st.eng.ApplyDeltas()
		end := time.Now()
		rc.trace.add("Engine.ApplyDeltas", "delta", 0, start, end)
		if err != nil {
			res.fail("round %d: ApplyDeltas: %v", r, err)
			break
		}
		if ds.Adds != wantAdds || ds.Deletes != wantDels || ds.Held != 0 || ds.Malformed != 0 {
			res.Failed += wantAdds + wantDels - ds.Adds - ds.Deletes
			res.fail("round %d: committed %d adds and %d deletes of %d and %d (held %d, malformed %d)",
				r, ds.Adds, ds.Deletes, wantAdds, wantDels, ds.Held, ds.Malformed)
		}
		committed += ds.Adds + ds.Deletes
		adds += ds.Adds
		simEvals += ds.SimEvals
		touched += ds.TouchedUsers
		batches = append(batches, ms(end.Sub(start)))
		if end.Sub(start) <= batchSLO {
			inLimit++
		}
		if st.eng.NeedsIteration() {
			res.Attempted++
			it, err := timedIterate(ctx, st.eng, rc.trace)
			if err != nil {
				res.fail("round %d: triggered iteration: %v", r, err)
				break
			}
			checkIteration(res, it.stats)
			iters = append(iters, it)
		}
	}
	w.close(time.Now())
	if len(iters) == 0 || len(batches) == 0 {
		return res, fmt.Errorf("churn-delta: %d batches and %d triggered iterations completed: %v", len(batches), len(iters), res.Failures)
	}

	// The request a client of this workload waits on is the batch.
	full := float64(len(iters))
	res.fillShared(rc, st, setupS, iters, w, full, dead, churnRecallFloor)
	res.Samples["request_ms"] = batches
	res.E2E["request_p50_ms"] = median(batches)
	res.E2E["request_slo_frac"] = float64(inLimit) / float64(rounds)
	res.E2E["requests_per_s"] = float64(committed) / w.wall.Seconds()
	res.Layer["core.delta_full_iters"] = full
	res.Layer["delta.sim_evals_per_add"] = float64(simEvals) / float64(max(adds, 1))
	res.Layer["delta.touched_users"] = float64(touched)

	if rc.trace != nil {
		if err := probeDelta(rc, res, st, pool[nextAdd-churnBase:], dead); err != nil {
			res.fail("delta probes: %v", err)
		}
	}
	res.finish()
	return res, nil
}

// probeDelta times internal/delta's two entry points directly, on a
// copy of the final graph: inserts of pool users the run did not reach,
// and removals of users it did not delete.
func probeDelta(rc runConfig, res *runResult, st iterState, unused []profile.Vector, dead map[uint32]bool) error {
	const inserts, removes = 64, 32
	if len(unused) < inserts {
		return fmt.Errorf("only %d unused pool users", len(unused))
	}
	g := st.eng.Graph()
	first := uint32(g.NumNodes())
	lookup := func(u uint32) (profile.Vector, error) {
		if u >= first {
			return unused[u-first], nil
		}
		return st.store.Get(u), nil
	}
	cfg := delta.Config{K: k, Sim: profile.Cosine{}, Dead: func(u uint32) bool { return dead[u] }}
	var insertUS []float64
	for i := 0; i < inserts; i++ {
		g.Grow(1)
		var err error
		d := rc.trace.timed("delta.Insert", "delta", 0, func() {
			_, err = delta.Insert(g, lookup, cfg, first+uint32(i), unused[i])
		})
		if err != nil {
			return err
		}
		insertUS = append(insertUS, us(d))
	}
	var removeUS []float64
	for u := uint32(0); len(removeUS) < removes; u += 97 {
		var err error
		d := rc.trace.timed("delta.Remove", "delta", 0, func() { _, err = delta.Remove(g, u) })
		if err != nil {
			return err
		}
		removeUS = append(removeUS, us(d))
	}
	res.Layer["delta.insert_us"] = median(insertUS)
	res.Layer["delta.remove_us"] = median(removeUS)
	return nil
}
