package load

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"knnpc/internal/netstore"
	"knnpc/internal/profile"
	"knnpc/internal/serve"
)

// planCfg is a baseline config tests tweak per case.
func planCfg() PlanConfig {
	return PlanConfig{
		Users: 500, Items: 2000, Ops: 4000,
		Rate: 4000, Skew: 1.3,
		WriteFrac: 0.1, ProfileFrac: 0.3,
		Seed: 7,
	}
}

// TestPlanDeterministic is the fixed-seed contract: equal configs
// build bit-identical op sequences; a different seed does not.
func TestPlanDeterministic(t *testing.T) {
	a, err := BuildPlan(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different plans")
	}
	cfg := planCfg()
	cfg.Seed = 8
	c, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestPlanValidation rejects degenerate configs.
func TestPlanValidation(t *testing.T) {
	for name, mut := range map[string]func(*PlanConfig){
		"zero users":       func(c *PlanConfig) { c.Users = 0 },
		"zero rate":        func(c *PlanConfig) { c.Rate = 0 },
		"skew at 1":        func(c *PlanConfig) { c.Skew = 1 },
		"writefrac 1":      func(c *PlanConfig) { c.WriteFrac = 1 },
		"negative addfrac": func(c *PlanConfig) { c.AddFrac = -0.1 },
		"fracs sum to 1":   func(c *PlanConfig) { c.AddFrac = 0.5; c.DelFrac = 0.4 },
		"burst no len":     func(c *PlanConfig) { c.Burst = 4; c.BurstEvery = time.Second },
		"burst len>every":  func(c *PlanConfig) { c.Burst = 4; c.BurstEvery = time.Second; c.BurstLen = 2 * time.Second },
	} {
		cfg := planCfg()
		mut(&cfg)
		if _, err := BuildPlan(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPlanArrival: scheduled times are monotone, the overall duration
// matches ops/rate, and burst windows are denser than steady-state.
func TestPlanArrival(t *testing.T) {
	cfg := planCfg()
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plan); i++ {
		if plan[i].At < plan[i-1].At {
			t.Fatalf("op %d scheduled before op %d", i, i-1)
		}
	}
	want := float64(cfg.Ops) / cfg.Rate
	if got := plan[len(plan)-1].At.Seconds(); math.Abs(got-want) > want*0.01 {
		t.Fatalf("plan spans %.3fs, want ≈%.3fs", got, want)
	}

	cfg.Burst, cfg.BurstEvery, cfg.BurstLen = 4, time.Second, 250*time.Millisecond
	// One period at rate R with a 4x burst quarter holds 1.75R ops;
	// span two full periods so the burst/steady split is measurable.
	cfg.Ops = 14000
	burst, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inBurst, steady := 0, 0
	for _, op := range burst {
		if op.At.Seconds()-math.Floor(op.At.Seconds()) < 0.25 {
			inBurst++
		} else {
			steady++
		}
	}
	// Burst quarter at 4x vs three steady quarters at 1x → the burst
	// window should hold ≈4/7 of all ops.
	frac := float64(inBurst) / float64(len(burst))
	if frac < 0.45 || frac > 0.65 {
		t.Fatalf("burst window holds %.2f of ops, want ≈0.57", frac)
	}
	_ = steady
}

// TestPlanZipfShape is the distribution sanity check: empirical
// rank frequencies match the Zipf pmf P(r) ∝ (1+r)^-s within
// tolerance, through the rank→user permutation.
func TestPlanZipfShape(t *testing.T) {
	cfg := planCfg()
	cfg.Ops = 200_000
	cfg.Rate = 1e6
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byUser := make(map[uint32]int)
	for _, op := range plan {
		byUser[op.User]++
	}
	// Recover rank→user the same way the plan builder draws it.
	rng := newPlanRNG(cfg.Seed)
	perm := rng.Perm(cfg.Users)

	var norm float64
	for r := 0; r < cfg.Users; r++ {
		norm += math.Pow(float64(1+r), -cfg.Skew)
	}
	for _, rank := range []int{0, 1, 2, 10, 50} {
		want := math.Pow(float64(1+rank), -cfg.Skew) / norm
		got := float64(byUser[uint32(perm[rank])]) / float64(cfg.Ops)
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("rank %d: empirical frequency %.4f, Zipf predicts %.4f", rank, got, want)
		}
	}
	// The hot set must be spread over user ids, not pinned to 0..k.
	if perm[0] == 0 && perm[1] == 1 && perm[2] == 2 {
		t.Error("rank→user permutation looks like the identity")
	}
}

// TestPlanMix: op-kind fractions track the configured mix.
func TestPlanMix(t *testing.T) {
	cfg := planCfg()
	cfg.Ops = 50_000
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n [NumKinds]float64
	for _, op := range plan {
		n[op.Kind]++
		if op.Kind == Update {
			if op.Item >= uint32(cfg.Items) || op.Weight < 1 || op.Weight > 5 {
				t.Fatalf("write op out of range: %+v", op)
			}
		}
	}
	total := float64(len(plan))
	if got := n[Update] / total; math.Abs(got-cfg.WriteFrac) > 0.02 {
		t.Errorf("write fraction %.3f, want %.3f", got, cfg.WriteFrac)
	}
	wantProfile := (1 - cfg.WriteFrac) * cfg.ProfileFrac
	if got := n[Profile] / total; math.Abs(got-wantProfile) > 0.02 {
		t.Errorf("profile fraction %.3f, want %.3f", got, wantProfile)
	}
}

// TestPlanMutations: AddFrac/DelFrac draw whole-user mutations at the
// configured rates; add ids are handed out sequentially from Users;
// deletes consume previously added ids oldest-first (falling back to a
// base user only before the first add).
func TestPlanMutations(t *testing.T) {
	cfg := planCfg()
	cfg.Ops = 50_000
	cfg.AddFrac, cfg.DelFrac = 0.05, 0.03
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n [NumKinds]float64
	addNext, delNext := uint32(cfg.Users), uint32(cfg.Users)
	for _, op := range plan {
		n[op.Kind]++
		switch op.Kind {
		case AddUser:
			if op.User != addNext {
				t.Fatalf("add handed out id %d, want sequential %d", op.User, addNext)
			}
			addNext++
			if op.Item >= uint32(cfg.Items) || op.Weight < 1 || op.Weight > 5 {
				t.Fatalf("add profile entry out of range: %+v", op)
			}
		case DelUser:
			if delNext < addNext {
				if op.User != delNext {
					t.Fatalf("delete targets %d, want oldest added %d", op.User, delNext)
				}
				delNext++
			} else if op.User >= uint32(cfg.Users) {
				t.Fatalf("fallback delete targets unadded user %d", op.User)
			}
		}
	}
	total := float64(len(plan))
	if got := n[AddUser] / total; math.Abs(got-cfg.AddFrac) > 0.01 {
		t.Errorf("add fraction %.3f, want %.3f", got, cfg.AddFrac)
	}
	if got := n[DelUser] / total; math.Abs(got-cfg.DelFrac) > 0.01 {
		t.Errorf("delete fraction %.3f, want %.3f", got, cfg.DelFrac)
	}

	// Zero fracs must reproduce the historical draw sequence exactly —
	// a mutation-free plan is bit-identical to one built before the
	// mutation kinds existed.
	a, err := BuildPlan(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	zero := planCfg()
	zero.AddFrac, zero.DelFrac = 0, 0
	b, err := BuildPlan(zero)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("explicit zero add/del fracs changed the plan")
	}
}

// countingTarget records ops and simulates a fixed service time.
type countingTarget struct {
	delay time.Duration
	mu    sync.Mutex
	ops   []Op
}

func (c *countingTarget) Name() string { return "stub" }
func (c *countingTarget) Close() error { return nil }
func (c *countingTarget) Do(op Op) error {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	c.mu.Lock()
	c.ops = append(c.ops, op)
	c.mu.Unlock()
	return nil
}

// TestRunOpenLoop: with one worker and a service time far above the
// arrival interval, measured latency must grow along the run — the
// queueing delay from the scheduled start is part of the number, not
// hidden by a throttled driver.
func TestRunOpenLoop(t *testing.T) {
	plan := make([]Op, 40)
	for i := range plan {
		plan[i] = Op{At: time.Duration(i) * time.Millisecond, Kind: Neighbors, User: uint32(i)}
	}
	tgt := &countingTarget{delay: 5 * time.Millisecond}
	res, err := Run(context.Background(), tgt, plan, RunConfig{Concurrency: 1, Window: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Kinds[Neighbors].Ops; got != 40 {
		t.Fatalf("ops = %d", got)
	}
	// 40 ops × 5ms service on one worker vs 1ms arrivals: the last op
	// waits ≈160ms. p99 must reflect that backlog.
	if p99 := res.Kinds[Neighbors].P99; p99 < 50*time.Millisecond {
		t.Errorf("open-loop p99 = %v, want queueing delay ≫ service time", p99)
	}
	if p50 := res.Kinds[Neighbors].P50; p50 <= 5*time.Millisecond {
		t.Errorf("open-loop p50 = %v, should include queueing", p50)
	}
}

// TestRunCancel: a cancelled context stops dispatch promptly and
// still returns the partial result.
func TestRunCancel(t *testing.T) {
	plan := make([]Op, 1000)
	for i := range plan {
		plan[i] = Op{At: time.Duration(i) * 10 * time.Millisecond, Kind: Neighbors}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	tgt := &countingTarget{}
	res, err := Run(ctx, tgt, plan, RunConfig{Concurrency: 2})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res == nil || res.Ops() == 0 || res.Ops() >= 1000 {
		t.Fatalf("partial result ops = %v", res)
	}
}

// serveStack brings up primaries + replicas + the HTTP front end with
// every user in a published view, and returns the base URL, the
// primary and replica addresses (for direct targets) and the primary
// client (for draining pushed updates).
func serveStack(t *testing.T, users int) (string, []string, []string, *netstore.Client) {
	t.Helper()
	const partitions = 4
	cluster, err := netstore.StartCluster(2, partitions, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	primary, err := netstore.Dial(cluster.Addrs(), partitions)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })

	vec, err := profile.NewVector([]profile.Entry{{Item: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]netstore.ViewEntry, partitions)
	for u := 0; u < users; u++ {
		p := u % partitions
		members[p] = append(members[p], netstore.ViewEntry{
			User: uint32(u), Neighbors: []uint32{uint32((u + 1) % users)},
			Profile: vec.AppendBinary(nil),
		})
	}
	for p := 0; p < partitions; p++ {
		if err := primary.PutBase(uint32(p), []byte("state")); err != nil {
			t.Fatal(err)
		}
		if err := primary.PutView(uint32(p), netstore.EncodeView(members[p])); err != nil {
			t.Fatal(err)
		}
	}

	reps, err := netstore.StartReplicas(cluster.Addrs(), partitions, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reps.Close() })
	srv, err := serve.New(serve.Config{Primaries: cluster.Addrs(), Replicas: reps.Addrs(), Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Mux())
	t.Cleanup(hs.Close)
	return hs.URL, cluster.Addrs(), reps.Addrs(), primary
}

// TestEndToEndHTTP is the knnload→knnserve smoke test: a mixed
// workload over httptest completes with non-zero reads and writes,
// zero errors and misses, and the written updates drain from the
// primaries' phase-5 queue.
func TestEndToEndHTTP(t *testing.T) {
	url, _, _, primary := serveStack(t, 64)
	cfg := PlanConfig{
		Users: 64, Items: 500, Ops: 300,
		Rate: 3000, Skew: 1.2,
		WriteFrac: 0.2, ProfileFrac: 0.3,
		Seed: 11,
	}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewHTTPTarget("replicas", url, 0)
	defer tgt.Close()
	res, err := Run(context.Background(), tgt, plan, RunConfig{Concurrency: 4, Window: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kinds[Neighbors].Ops == 0 || res.Kinds[Profile].Ops == 0 || res.Kinds[Update].Ops == 0 {
		t.Fatalf("empty op kind: %+v", res.Kinds)
	}
	if res.Errors() != 0 {
		t.Fatalf("%d errors; first: %q %q %q", res.Errors(),
			res.Kinds[0].FirstError, res.Kinds[1].FirstError, res.Kinds[2].FirstError)
	}
	if res.Misses() != 0 {
		t.Fatalf("%d misses with every user published", res.Misses())
	}
	if res.Ops() != uint64(cfg.Ops) {
		t.Fatalf("ran %d ops, planned %d", res.Ops(), cfg.Ops)
	}

	drained, err := primary.DrainUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(drained)) != res.Kinds[Update].Ops {
		t.Fatalf("drained %d updates, pushed %d", len(drained), res.Kinds[Update].Ops)
	}

	var winOps uint64
	for _, win := range res.Windows() {
		for k := range win.Ops {
			winOps += win.Ops[k]
		}
	}
	if winOps != res.Ops() {
		t.Fatalf("windows hold %d ops, total %d", winOps, res.Ops())
	}
}

// TestEndToEndDirect drives the netstore client directly against the
// primaries — the HTTP-overhead-isolation mode — on the same stack,
// then replays a read-only plan against the replica tier.
func TestEndToEndDirect(t *testing.T) {
	_, addrs, replicas, primary := serveStack(t, 64)
	tgt, err := NewDirectTarget("direct", addrs, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	plan, err := BuildPlan(PlanConfig{
		Users: 64, Items: 500, Ops: 200, Rate: 4000, Skew: 1.2,
		WriteFrac: 0.15, ProfileFrac: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), tgt, plan, RunConfig{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors() != 0 || res.Misses() != 0 {
		t.Fatalf("direct run: %d errors %d misses (first %q)", res.Errors(), res.Misses(), res.Kinds[Neighbors].FirstError)
	}
	drained, err := primary.DrainUpdates()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(drained)) != res.Kinds[Update].Ops {
		t.Fatalf("drained %d, pushed %d", len(drained), res.Kinds[Update].Ops)
	}

	// Replicas answer every read of the plan from the views they
	// follow, with measured, ordered percentiles.
	reads, err := BuildPlan(PlanConfig{
		Users: 64, Items: 500, Ops: 200, Rate: 4000, Skew: 1.2,
		ProfileFrac: 0.3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rtgt, err := NewDirectTarget("replicas", replicas, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rtgt.Close()
	res, err = Run(context.Background(), rtgt, reads, RunConfig{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops() != uint64(len(reads)) || res.Errors() != 0 || res.Misses() != 0 {
		t.Fatalf("replica run: %d of %d ops, %d errors %d misses (first %q)",
			res.Ops(), len(reads), res.Errors(), res.Misses(), res.Kinds[Neighbors].FirstError)
	}
	for _, k := range []Kind{Neighbors, Profile} {
		if r := res.Kinds[k]; r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("replica run kind %d: bad percentiles p50=%v p99=%v", k, r.P50, r.P99)
		}
	}
}

// TestEndToEndMutations: a plan with add/del fractions drives PUT and
// DELETE /v1/profile/{id} through both target flavors, and every
// mutation lands in the primaries' delta journal.
func TestEndToEndMutations(t *testing.T) {
	url, addrs, _, primary := serveStack(t, 64)
	cfg := PlanConfig{
		Users: 64, Items: 500, Ops: 300,
		Rate: 3000, Skew: 1.2,
		WriteFrac: 0.1, ProfileFrac: 0.3,
		AddFrac: 0.1, DelFrac: 0.05,
		Seed: 11,
	}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}

	httpTgt := NewHTTPTarget("replicas", url, 0)
	defer httpTgt.Close()
	res, err := Run(context.Background(), httpTgt, plan, RunConfig{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kinds[AddUser].Ops == 0 || res.Kinds[DelUser].Ops == 0 {
		t.Fatalf("empty mutation kind: %+v", res.Kinds)
	}
	if res.Errors() != 0 {
		t.Fatalf("%d errors; add %q del %q", res.Errors(),
			res.Kinds[AddUser].FirstError, res.Kinds[DelUser].FirstError)
	}
	muts, err := primary.DrainMutations()
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Kinds[AddUser].Ops + res.Kinds[DelUser].Ops; uint64(len(muts)) != want {
		t.Fatalf("drained %d mutations, sent %d", len(muts), want)
	}

	direct, err := NewDirectTarget("direct", addrs, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	res, err = Run(context.Background(), direct, plan, RunConfig{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors() != 0 {
		t.Fatalf("direct mutations: %d errors (add %q)", res.Errors(), res.Kinds[AddUser].FirstError)
	}
	muts, err = primary.DrainMutations()
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Kinds[AddUser].Ops + res.Kinds[DelUser].Ops; uint64(len(muts)) != want {
		t.Fatalf("direct drained %d mutations, sent %d", len(muts), want)
	}
}
