package main

import (
	"context"
	"fmt"
	"time"

	"knnpc/internal/core"
	"knnpc/internal/disk"
	"knnpc/internal/profile"
)

// iterConfig is one of the two iteration workloads.
type iterConfig struct {
	users int
	opts  core.Options
	// itersPerSecond turns -seconds into the measured iteration count;
	// it is this workload's nominal iteration rate, fixed so the count
	// never depends on how fast the host happens to be.
	itersPerSecond float64
	// sloS is the limit an iteration must finish within to count in
	// request_slo_frac.
	sloS float64
	// recallFloor is the recall the final graph must reach at run_seconds.
	recallFloor float64
}

var iterHDD = iterConfig{
	users: 4000,
	opts: core.Options{
		K: k, NumPartitions: 8, Slots: 4,
		PrefetchDepth: 4, AsyncWriteback: true, ShardPrefetch: 4,
		ExecWorkers: 2, OnDisk: true, EmulateDisk: &disk.HDD,
	},
	itersPerSecond: 0.75,
	sloS:           2.0,
	recallFloor:    0.72,
}

var iterCPU = iterConfig{
	users: 8000,
	opts: core.Options{
		K: k, NumPartitions: 32, Slots: 2,
		Workers: 1, ExecWorkers: 1, BuildWorkers: 1, OnDisk: true,
	},
	itersPerSecond: 0.5,
	sloS:           2.75,
	recallFloor:    0.42,
}

// iterState is what the layer probes need from a finished iteration
// workload.
type iterState struct {
	eng   *core.Engine
	store *profile.Store
	opts  core.Options
}

func runIter(rc runConfig, cfg iterConfig) (*runResult, error) {
	ctx := context.Background()
	res := newResult(rc)
	base, err := genProfiles(cfg.users, rc.seed)
	if err != nil {
		return nil, err
	}

	st, setupS, err := setupEngines(rc, func(scratch string) (iterState, func(), error) {
		opts := cfg.opts
		opts.Seed = rc.seed
		opts.ScratchDir = scratch
		store := profile.NewStoreFromVectors(append([]profile.Vector(nil), base...))
		eng, err := core.New(store, opts)
		if err != nil {
			return iterState{}, nil, err
		}
		if _, err := eng.Iterate(ctx); err != nil { // warm-up
			eng.Close()
			return iterState{}, nil, err
		}
		return iterState{eng: eng, store: store, opts: opts}, func() { eng.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.eng.Close()

	n := max(4, int(rc.seconds*cfg.itersPerSecond))
	updates := newUpdateStream(rc.seed, cfg.users)
	var iters []iterSample
	w := openWindow()
	for i := 0; i < n; i++ {
		for _, u := range updates.next(cfg.users / 100) {
			st.eng.EnqueueUpdate(u)
		}
		res.Attempted++
		it, err := timedIterate(ctx, st.eng, rc.trace)
		if err != nil {
			res.fail("iteration %d: %v", i, err)
			break
		}
		checkIteration(res, it.stats)
		iters = append(iters, it)
	}
	w.close(time.Now())
	if len(iters) == 0 {
		return res, fmt.Errorf("%s: no iteration completed: %v", rc.workload, res.Failures)
	}

	// The request a client of this workload waits on is the iteration.
	within := 0
	for _, it := range iters {
		if it.wall.Seconds() <= cfg.sloS {
			within++
		}
	}
	done := float64(len(iters))
	res.fillShared(rc, st, setupS, iters, w, done, nil, cfg.recallFloor)
	res.E2E["request_p50_ms"] = 1000 * res.E2E["iter_s"]
	res.E2E["request_slo_frac"] = float64(within) / float64(n)
	res.E2E["requests_per_s"] = done * float64(cfg.users) / w.wall.Seconds()

	if cfg.opts.EmulateDisk == nil {
		// Bypass assertion: without emulation no device exists, so every
		// device-time metric must read exactly 0.
		for _, name := range []string{"disk.modeled_ms", "disk.slept_ms", "disk.busy_frac"} {
			if res.Layer[name] != 0 {
				res.fail("%s = %g on a workload with no emulated device", name, res.Layer[name])
			}
		}
	}
	res.finish()
	return res, nil
}
