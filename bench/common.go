package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/exact"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

// k is the neighbor count of every workload.
const k = 16

// runConfig is what one run of one workload receives.
type runConfig struct {
	workload string
	seed     int64
	// seconds scales the measured work: each workload derives its
	// iteration, op and round counts from it by a fixed rule, so two
	// runs at one (seed, seconds) do identical work on any host.
	seconds float64
	// setups is how many times set-up is repeated for setup_s (the
	// last engine built is the one measured).
	setups int
	// trace is nil for an end-to-end run; the traced pass passes a
	// tracer and runs the layer probes.
	trace *tracer
	// scratch is a directory inside the checkout for on-disk state.
	scratch string
}

// runResult is what one run reports.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	E2E      map[string]float64 `json:"end_to_end"`
	Layer    map[string]float64 `json:"per_layer"`
	// Samples holds the within-run samples behind the medians, for the
	// printed distributions.
	Samples     map[string][]float64 `json:"-"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Failures    []string             `json:"failures"`
	GraphDigest string               `json:"graph_digest"`
}

func newResult(rc runConfig) *runResult {
	return &runResult{
		Workload: rc.workload, Seed: rc.seed, Traced: rc.trace != nil,
		E2E: make(map[string]float64), Layer: make(map[string]float64),
		Samples: make(map[string][]float64),
	}
}

// fail records a failed correctness check; it counts as one failed
// operation so fail shows in ok_frac and in the result line.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *runResult) correct() bool { return len(r.Failures) == 0 }

// finish applies the bypass assertion and fills the end-to-end metrics
// every workload derives the same way.
func (r *runResult) finish() {
	// Only serve-mixed has a store tier, a front end and a load driver;
	// a metric of those layers anywhere else means a workload stopped
	// bypassing what it exists to bypass.
	if r.Workload != "serve-mixed" {
		for _, m := range perLayer {
			layer, _, _ := strings.Cut(m.Name, ".")
			if _, ok := r.Layer[m.Name]; ok && (layer == "netstore" || layer == "serve" || layer == "load") {
				r.fail("%s emitted on %s, which has no %s layer", m.Name, r.Workload, layer)
			}
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	failed := min(r.Failed, r.Attempted)
	r.E2E["ok_frac"] = 1 - float64(failed)/float64(r.Attempted)
}

// genProfiles is the one dataset generator of the benchmark.
func genProfiles(users int, seed int64) ([]profile.Vector, error) {
	vecs, _, err := dataset.RatingsProfiles(users, 4*users, 25, 8, seed)
	return vecs, err
}

// updateStream yields the seeded SetItem updates the iteration
// workloads enqueue before each iteration, so phase 5 runs and the
// graph keeps moving.
type updateStream struct {
	rng   *rand.Rand
	users int
	items int
}

func newUpdateStream(seed int64, users int) *updateStream {
	return &updateStream{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), users: users, items: 4 * users}
}

func (s *updateStream) next(n int) []profile.Update {
	out := make([]profile.Update, n)
	for i := range out {
		out[i] = profile.Update{
			User:   uint32(s.rng.Intn(s.users)),
			Kind:   profile.SetItem,
			Item:   uint32(s.rng.Intn(s.items)),
			Weight: float32(1 + s.rng.Intn(5)),
		}
	}
	return out
}

// graphDigest is a hash of every neighbor list, in id order.
func graphDigest(g *graph.KNN) string {
	h := sha256.New()
	var buf [4]byte
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Neighbors(uint32(u))
		binary.LittleEndian.PutUint32(buf[:], uint32(len(nbrs)))
		h.Write(buf[:])
		for _, v := range nbrs {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recallAgainstExact compares g with the brute-force graph over the
// final profiles. Tombstoned users are excluded on both sides: the live
// users are renumbered densely (order-preserving, so lists stay sorted).
func recallAgainstExact(g *graph.KNN, store *profile.Store, dead map[uint32]bool) (float64, error) {
	n := store.NumUsers()
	if g.NumNodes() != n {
		return 0, fmt.Errorf("graph has %d nodes, profile store %d users", g.NumNodes(), n)
	}
	dense := make([]int, n)
	var live []profile.Vector
	for u := 0; u < n; u++ {
		if dead[uint32(u)] {
			dense[u] = -1
			continue
		}
		dense[u] = len(live)
		live = append(live, store.Get(uint32(u)))
	}
	approx, err := graph.NewKNN(len(live), k)
	if err != nil {
		return 0, err
	}
	for u := 0; u < n; u++ {
		if dense[u] < 0 {
			continue
		}
		var nbrs []uint32
		for _, v := range g.Neighbors(uint32(u)) {
			if dense[v] < 0 {
				return 0, fmt.Errorf("user %d lists tombstoned user %d", u, v)
			}
			nbrs = append(nbrs, uint32(dense[v]))
		}
		if err := approx.Set(uint32(dense[u]), nbrs); err != nil {
			return 0, err
		}
	}
	want, err := exact.Compute(profile.NewStoreFromVectors(live), exact.Options{
		K: k, Sim: profile.Cosine{}, Workers: runtime.NumCPU(),
	})
	if err != nil {
		return 0, err
	}
	return knn.Recall(approx, want), nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memCounters reads the allocator's cumulative counters.
func memCounters() (bytes, mallocs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// window is a run's measured interval: its wall time, what the allocator
// handed out during it, and the process's peak RSS when it closed.
type window struct {
	start          time.Time
	bytes0, count0 uint64

	wall       time.Duration
	allocBytes float64
	allocs     float64
	rssMB      float64
}

func openWindow() *window {
	w := &window{}
	w.bytes0, w.count0 = memCounters()
	w.start = time.Now()
	return w
}

// close ends the window at end (the allocator is read now).
func (w *window) close(end time.Time) {
	w.wall = end.Sub(w.start)
	bytes, count := memCounters()
	w.allocBytes, w.allocs = float64(bytes-w.bytes0), float64(count-w.count0)
	w.rssMB = peakRSSMB()
}

// fillShared fills what every workload derives the same way from its
// measured iterations and its final graph: seven of the end-to-end
// metrics, the core, pigraph and disk counters, the recall floor and
// graph digest, and in the traced pass the tracer's cost and the probes
// of the layers every iteration uses. itersInWindow is the number of
// iterations the window's allocations are divided among; dead names the
// tombstoned users.
func (r *runResult) fillShared(rc runConfig, st iterState, setupS []float64, iters []iterSample, w *window, itersInWindow float64, dead map[uint32]bool, recallFloor float64) {
	walls := iterWalls(iters)
	r.Samples["setup_s"] = setupS
	r.Samples["iter_s"] = walls
	r.E2E["setup_s"] = median(setupS)
	r.E2E["iter_s"] = median(walls)
	r.E2E["alloc_mb_per_iter"] = w.allocBytes / itersInWindow / (1 << 20)
	r.E2E["peak_rss_mb"] = w.rssMB
	coreLayerMetrics(r, iters, w.wall, w.allocs/itersInWindow)
	r.E2E["ops_per_iter"] = r.Layer["pigraph.ops"]

	g := st.eng.Graph()
	recall, err := recallAgainstExact(g, st.store, dead)
	if err != nil {
		r.fail("recall: %v", err)
	}
	r.GraphDigest = graphDigest(g)
	r.E2E["recall_at_k"] = recall
	// The floors hold for the amount of work BENCHMARK.json's run_seconds
	// buys; a shorter smoke run iterates less and is not held to them.
	if rc.seconds >= defaultSeconds && recall < recallFloor {
		r.fail("recall_at_k %.4f is below the workload's floor %.2f", recall, recallFloor)
	}

	if rc.trace != nil {
		r.Layer["bench.trace_overhead_frac"] = rc.trace.overheadFrac(w.wall)
		if err := probeIterationLayers(rc, r, st); err != nil {
			r.fail("layer probes: %v", err)
		}
	}
}

// setupEngines builds the workload's engine rc.setups times with build,
// which also runs the warm-up; every engine but the last is closed. It
// returns the last build's value and the set-up time samples.
func setupEngines[T any](rc runConfig, build func(scratch string) (T, func(), error)) (T, []float64, error) {
	var (
		last    T
		samples []float64
	)
	for i := 0; i < rc.setups; i++ {
		scratch := filepath.Join(rc.scratch, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return last, nil, err
		}
		start := time.Now()
		v, closeFn, err := build(scratch)
		if err != nil {
			return last, nil, err
		}
		samples = append(samples, time.Since(start).Seconds())
		if i < rc.setups-1 {
			closeFn()
			runtime.GC()
		}
		last = v
	}
	return last, samples, nil
}

// iterSample is one measured Engine.Iterate.
type iterSample struct {
	wall  time.Duration
	stats *core.IterationStats
}

// timedIterate runs one iteration inside a span whose children are the
// five phases laid end to end from the iteration's start. A phase span
// carries the layer that owns the phase's work; phase 4 stays with core
// because from outside it is one number covering knn scoring, tuple
// shard reads, the state store and device wait (disk.* and the knn and
// tuples probes split it).
func timedIterate(ctx context.Context, eng *core.Engine, tr *tracer) (iterSample, error) {
	start := time.Now()
	st, err := eng.Iterate(ctx)
	end := time.Now()
	if err != nil {
		return iterSample{}, err
	}
	if id := tr.add("Engine.Iterate", "core", 0, start, end); id != 0 {
		at := start
		for _, ph := range []struct {
			name, layer string
			d           time.Duration
		}{
			{"p1 partition", "partition", st.Phases.Partition},
			{"p2 tuples", "tuples", st.Phases.Tuples},
			{"p3 pigraph", "pigraph", st.Phases.PIGraph},
			{"p4 score", "core", st.Phases.Score},
			{"p5 update", "profile", st.Phases.Update},
		} {
			tr.add(ph.name, ph.layer, id, at, at.Add(ph.d))
			at = at.Add(ph.d)
		}
	}
	return iterSample{wall: end.Sub(start), stats: st}, nil
}

// checkIteration applies the per-iteration correctness checks.
func checkIteration(res *runResult, st *core.IterationStats) {
	if st.Loads != st.PredictedLoads || st.Unloads != st.PredictedUnloads {
		res.fail("iteration %d: measured %d/%d load/unload ops, simulator predicted %d/%d",
			st.Iteration, st.Loads, st.Unloads, st.PredictedLoads, st.PredictedUnloads)
	}
}

// coreLayerMetrics fills the core.*, pigraph.* counts and disk.* from the
// measured iterations' own statistics, as means per iteration. wall is
// the measured window, for disk.busy_frac.
func coreLayerMetrics(res *runResult, iters []iterSample, wall time.Duration, allocsPerIter float64) {
	n := float64(len(iters))
	if n == 0 {
		return
	}
	var (
		p1, p2, p3, p4, p5, unattributed   float64
		ops, piEdges, scored, changes      float64
		prefetched, async, objective       float64
		modeled, slept, read, wrote, seeks float64
		busiest                            time.Duration
	)
	perDevice := make(map[string]time.Duration)
	for _, it := range iters {
		st := it.stats
		p1 += ms(st.Phases.Partition)
		p2 += ms(st.Phases.Tuples)
		p3 += ms(st.Phases.PIGraph)
		p4 += ms(st.Phases.Score)
		p5 += ms(st.Phases.Update)
		unattributed += ms(it.wall - st.Phases.Total())
		ops += float64(st.Ops())
		piEdges += float64(st.PIEdges)
		scored += float64(st.TuplesScored)
		changes += float64(st.EdgeChanges)
		prefetched += float64(st.PrefetchedLoads)
		async += float64(st.AsyncUnloads)
		objective += float64(st.PartitionObjective)
		read += float64(st.IO.BytesRead)
		wrote += float64(st.IO.BytesWritten)
		seeks += float64(st.IO.Seeks)
		for _, d := range st.IO.Devices {
			modeled += ms(d.Modeled)
			slept += ms(d.Slept)
			perDevice[d.Name] += d.Slept
		}
	}
	for _, d := range perDevice {
		busiest = max(busiest, d)
	}
	l := res.Layer
	l["core.p1_partition_ms"] = p1 / n
	l["core.p2_tuples_ms"] = p2 / n
	l["core.p3_pigraph_ms"] = p3 / n
	l["core.p4_score_ms"] = p4 / n
	l["core.p5_update_ms"] = p5 / n
	l["core.unattributed_ms"] = unattributed / n
	l["core.tuples_scored"] = scored / n
	l["core.edge_changes"] = changes / n
	l["core.prefetched_loads"] = prefetched / n
	l["core.async_unloads"] = async / n
	l["core.allocs_per_iter"] = allocsPerIter
	l["pigraph.ops"] = ops / n
	l["pigraph.pi_edges"] = piEdges / n
	l["partition.objective"] = objective / n
	l["disk.modeled_ms"] = modeled / n
	l["disk.slept_ms"] = slept / n
	l["disk.bytes_read"] = read / n
	l["disk.bytes_written"] = wrote / n
	l["disk.seeks"] = seeks / n
	if wall > 0 {
		l["disk.busy_frac"] = float64(busiest) / float64(wall)
	}
}

// iterWalls extracts the wall times in seconds.
func iterWalls(iters []iterSample) []float64 {
	out := make([]float64, len(iters))
	for i, it := range iters {
		out[i] = it.wall.Seconds()
	}
	return out
}
