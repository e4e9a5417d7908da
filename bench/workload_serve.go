package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/core"
	"knnpc/internal/disk"
	"knnpc/internal/load"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
	"knnpc/internal/serve"
)

const (
	serveUsers      = 4000
	servePartitions = 8
	serveRate       = 400 // open-loop arrivals per second
	// readSLO is the limit a read must be answered within, measured from
	// its scheduled send.
	readSLO = 10 * time.Millisecond
	// maxDispatchLag is how late the generator may run at the median
	// before the run's latencies stop meaning anything.
	maxDispatchLag = 2 * time.Millisecond
	// serveRecallFloor is the recall the final graph must reach at
	// run_seconds.
	serveRecallFloor = 0.72
)

var serveOpts = core.Options{
	K: k, NumPartitions: servePartitions, Slots: 4,
	PrefetchDepth: 4, AsyncWriteback: true, ShardPrefetch: 4,
	ExecWorkers: 2, OnDisk: true, EmulateDisk: &disk.HDD,
	NetStoreShards: 2, PublishViews: true,
}

// serveStack is the engine with its serving tier. The harness starts the
// replica set itself — with the call the engine's NetStoreReplicas option
// makes — because that is the only way to read Replica.Pulls and the
// replica spindles from outside.
type serveStack struct {
	iterState
	replicas *netstore.ReplicaSet
	srv      *serve.Server
	http     *httptest.Server
}

func (s *serveStack) close() {
	s.http.Close()
	s.srv.Close()
	s.replicas.Close()
	s.eng.Close()
}

func buildServeStack(ctx context.Context, base []profile.Vector, seed int64, scratch string) (*serveStack, error) {
	opts := serveOpts
	opts.Seed = seed
	opts.ScratchDir = scratch
	store := profile.NewStoreFromVectors(append([]profile.Vector(nil), base...))
	eng, err := core.New(store, opts)
	if err != nil {
		return nil, err
	}
	// The warm-up iteration publishes the first serve views.
	if _, err := eng.Iterate(ctx); err != nil {
		eng.Close()
		return nil, err
	}
	replicas, err := netstore.StartReplicas(eng.StoreAddrs(), servePartitions, &disk.HDD)
	if err != nil {
		eng.Close()
		return nil, err
	}
	srv, err := serve.New(serve.Config{Primaries: eng.StoreAddrs(), Replicas: replicas.Addrs(), Partitions: servePartitions})
	if err != nil {
		replicas.Close()
		eng.Close()
		return nil, err
	}
	return &serveStack{
		iterState: iterState{eng: eng, store: store, opts: opts},
		replicas:  replicas, srv: srv, http: httptest.NewServer(srv.Mux()),
	}, nil
}

// opRecord is one finished load op.
type opRecord struct {
	kind       load.Kind
	at         time.Duration // scheduled send, as an offset from the run's start
	sent, done time.Time
	ok         bool
}

// checkedTarget is the load.Target of the benchmark: it speaks the v1
// HTTP API like load.HTTPTarget, and also checks each answer's content
// and keeps every op's exact latency (load.Result only has histogram
// percentiles, 3 % wide).
type checkedTarget struct {
	base   string
	client *http.Client
	users  uint32
	trace  *tracer

	mu      sync.Mutex
	records []opRecord
}

func newCheckedTarget(base string, users int, tr *tracer) *checkedTarget {
	return &checkedTarget{
		base: base, users: uint32(users), trace: tr,
		client: &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.NumCPU()},
		},
	}
}

func (t *checkedTarget) Name() string { return "serve-mixed" }

func (t *checkedTarget) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

// Do executes one op and records it.
func (t *checkedTarget) Do(op load.Op) error {
	sent := time.Now()
	err := t.do(op)
	done := time.Now()
	t.trace.add(op.Kind.String(), "load", 0, sent, done)
	t.mu.Lock()
	t.records = append(t.records, opRecord{kind: op.Kind, at: op.At, sent: sent, done: done, ok: err == nil})
	t.mu.Unlock()
	return err
}

// runStart recovers load.Run's private start time, from which every op's
// send was scheduled. Run never dispatches an op before start+At, and
// among thousands of ops some are picked up within microseconds of being
// due, so the earliest sent-At is start to within that pick-up time.
func (t *checkedTarget) runStart() time.Time {
	var start time.Time
	for i, r := range t.records {
		if s := r.sent.Add(-r.at); i == 0 || s.Before(start) {
			start = s
		}
	}
	return start
}

func (t *checkedTarget) do(op load.Op) error {
	switch op.Kind {
	case load.Neighbors:
		var out api.NeighborsResponse
		if err := t.get(fmt.Sprintf("%s%s%d", t.base, api.PathNeighbors, op.User), &out); err != nil {
			return err
		}
		if out.User != op.User || len(out.Neighbors) == 0 || len(out.Neighbors) > k {
			return fmt.Errorf("bench: neighbors of %d: answer for %d with %d ids", op.User, out.User, len(out.Neighbors))
		}
		for _, v := range out.Neighbors {
			if v == op.User || v >= t.users {
				return fmt.Errorf("bench: neighbors of %d list %d", op.User, v)
			}
		}
		return nil
	case load.Profile:
		var out api.ProfileResponse
		if err := t.get(fmt.Sprintf("%s%s/%d", t.base, api.PathProfile, op.User), &out); err != nil {
			return err
		}
		if out.User != op.User || len(out.Items) == 0 {
			return fmt.Errorf("bench: profile of %d: answer for %d with %d items", op.User, out.User, len(out.Items))
		}
		for i, it := range out.Items {
			if it.Weight <= 0 || (i > 0 && out.Items[i-1].Item >= it.Item) {
				return fmt.Errorf("bench: profile of %d is not a sorted positive vector", op.User)
			}
		}
		return nil
	case load.Update:
		return t.postUpdate(op.User, op.Item, op.Weight)
	}
	return fmt.Errorf("bench: op kind %s is not part of this plan", op.Kind)
}

func (t *checkedTarget) get(url string, out any) error {
	resp, err := t.client.Get(url)
	if err != nil {
		return err
	}
	defer drainBody(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		return json.NewDecoder(resp.Body).Decode(out)
	case http.StatusNotFound:
		return load.ErrMiss
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: HTTP 503", load.ErrShed)
	}
	return fmt.Errorf("bench: HTTP %d", resp.StatusCode)
}

func (t *checkedTarget) postUpdate(user, item uint32, weight float32) error {
	body, err := json.Marshal(api.UpdateRequest{Updates: []api.ProfileUpdate{
		{User: user, Op: api.OpSet, Item: item, Weight: weight},
	}})
	if err != nil {
		return err
	}
	resp, err := t.client.Post(t.base+api.PathProfile, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("bench: update: HTTP %d", resp.StatusCode)
	}
	var out api.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("bench: update response: %w", err)
	}
	if out.Queued != 1 {
		return fmt.Errorf("bench: queued %d updates, pushed 1", out.Queued)
	}
	return nil
}

func drainBody(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<16))
	body.Close()
}

// servePlan is the traffic of serve-mixed: Zipf-skewed reads, three in
// ten of them profile reads, and one write in ten ops.
func servePlan(seed int64, seconds float64) load.PlanConfig {
	return load.PlanConfig{
		Users: serveUsers, Items: 4 * serveUsers, Ops: int(seconds * serveRate),
		Rate: serveRate, Skew: 1.1, ProfileFrac: 0.3, WriteFrac: 0.1, Seed: seed,
	}
}

func runServe(rc runConfig) (*runResult, error) {
	ctx := context.Background()
	res := newResult(rc)
	base, err := genProfiles(serveUsers, rc.seed)
	if err != nil {
		return nil, err
	}
	plan, err := load.BuildPlan(servePlan(rc.seed, rc.seconds))
	if err != nil {
		return nil, err
	}

	st, setupS, err := setupEngines(rc, func(scratch string) (*serveStack, func(), error) {
		s, err := buildServeStack(ctx, base, rc.seed, scratch)
		if err != nil {
			return nil, nil, err
		}
		return s, s.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	target := newCheckedTarget(st.http.URL, serveUsers, rc.trace)
	defer target.Close()

	// The engine iterates for the whole replay, so reads contend with
	// live phase-4 traffic on the primaries and with the replicas'
	// re-pulls after every commit.
	type timedIter struct {
		iterSample
		end time.Time
	}
	var (
		iters   []timedIter
		engErr  error
		stop    = make(chan struct{})
		engDone = make(chan struct{})
	)
	pullsBefore := replicaPulls(st.replicas)
	w := openWindow()
	go func() {
		defer close(engDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			it, err := timedIterate(ctx, st.eng, rc.trace)
			if err != nil {
				engErr = err
				return
			}
			iters = append(iters, timedIter{it, time.Now()})
		}
	}()
	loadRes, loadErr := load.Run(ctx, target, plan, load.RunConfig{Concurrency: runtime.NumCPU()})
	loadEnd := time.Now()
	close(stop)
	<-engDone
	w.close(loadEnd)
	if loadErr != nil {
		return res, loadErr
	}
	if engErr != nil {
		return res, fmt.Errorf("engine under load: %w", engErr)
	}

	// Iterations: only those that ran entirely beside the load count.
	var under []iterSample
	for _, it := range iters {
		res.Attempted++
		checkIteration(res, it.stats)
		if !it.end.After(loadEnd) {
			under = append(under, it.iterSample)
		}
	}
	if len(under) == 0 {
		return res, fmt.Errorf("serve-mixed: no iteration completed beside the load")
	}

	// Load ops.
	var reads, writes, lags []float64
	readsAttempted, readsInSLO := 0, 0
	runStart := target.runStart()
	for _, r := range target.records {
		res.Attempted++
		if !r.ok {
			res.Failed++
		}
		due := runStart.Add(r.at)
		latency := r.done.Sub(due) // from the scheduled send, as load.Run counts it
		lags = append(lags, ms(r.sent.Sub(due)))
		if r.kind == load.Update {
			writes = append(writes, ms(latency))
			continue
		}
		readsAttempted++
		reads = append(reads, ms(latency))
		if r.ok && latency <= readSLO {
			readsInSLO++
		}
	}
	if len(target.records) != len(plan) {
		res.fail("%d of %d planned ops executed", len(target.records), len(plan))
	}
	if n := loadRes.Errors(); n > 0 {
		res.fail("%d protocol errors (first: %s / %s / %s)", n, loadRes.Kinds[load.Neighbors].FirstError,
			loadRes.Kinds[load.Profile].FirstError, loadRes.Kinds[load.Update].FirstError)
	}
	if lag := median(lags); lag > ms(maxDispatchLag) {
		res.fail("load generator ran %.3f ms late at the median (limit %v)", lag, maxDispatchLag)
	}
	checkWriteVisible(ctx, res, st, target)

	// The engine iterates back to back, so the window holds this many
	// iterations (the last one in part); the serving tier's allocations
	// beside them are part of what an iteration costs here.
	itersInWindow := w.wall.Seconds() / mean(iterWalls(under))
	res.fillShared(rc, st.iterState, setupS, under, w, itersInWindow, nil, serveRecallFloor)
	// The request a client of this workload waits on is the read.
	sort.Float64s(reads)
	res.Samples["request_ms"] = reads
	res.Samples["write_ms"] = writes
	res.E2E["request_p50_ms"] = quantile(reads, 0.5)
	res.E2E["request_slo_frac"] = float64(readsInSLO) / float64(max(readsAttempted, 1))
	res.E2E["requests_per_s"] = float64(readsInSLO) / loadRes.Wall.Seconds()

	stats := st.srv.Stats()
	res.Layer["serve.read_fallbacks"] = float64(stats.ReadFallbacks)
	res.Layer["serve.shed"] = float64(stats.Shed)
	res.Layer["load.read_p95_ms"] = percentile(reads, 95)
	res.Layer["load.read_p99_ms"] = percentile(reads, 99)
	res.Layer["load.write_p50_ms"] = median(writes)
	res.Layer["load.dispatch_lag_ms"] = median(lags)
	res.Layer["load.misses"] = float64(loadRes.Misses())
	res.Layer["netstore.replica_pulls"] = float64(replicaPulls(st.replicas) - pullsBefore)

	if rc.trace != nil {
		if err := probeServing(rc, res, st); err != nil {
			res.fail("serving probes: %v", err)
		}
	}
	res.finish()
	return res, nil
}

func replicaPulls(rs *netstore.ReplicaSet) uint64 {
	var n uint64
	for _, r := range rs.Replicas() {
		n += r.Pulls()
	}
	return n
}

// checkWriteVisible posts one update of an item no profile holds, lets
// the engine commit once, and reads the profile back through the serving
// tier: the write must be visible after the next commit.
func checkWriteVisible(ctx context.Context, res *runResult, st *serveStack, target *checkedTarget) {
	const user, weight = 7, 3.5
	item := uint32(4*serveUsers + 1) // outside the generator's item space
	res.Attempted++
	if err := target.postUpdate(user, item, weight); err != nil {
		res.fail("sentinel update: %v", err)
		return
	}
	it, err := timedIterate(ctx, st.eng, nil)
	if err != nil {
		res.fail("commit after sentinel update: %v", err)
		return
	}
	checkIteration(res, it.stats)
	var out api.ProfileResponse
	if err := target.get(fmt.Sprintf("%s%s/%d", target.base, api.PathProfile, user), &out); err != nil {
		res.fail("read back sentinel update: %v", err)
		return
	}
	for _, e := range out.Items {
		if e.Item == item && e.Weight == weight {
			return
		}
	}
	res.fail("update of user %d item %d is not visible through /v1/profile after the next commit", user, item)
}
