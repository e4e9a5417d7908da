package pigraph

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// stepSeq flattens a visit sequence into its pair/self step events in
// tape order — the unit Split must preserve exactly.
func stepSeq(visits []Visit) []event {
	var out []event
	for _, v := range visits {
		if v.Self {
			out = append(out, event{"self", v.Primary, 0})
		}
		for _, p := range v.Peers {
			out = append(out, event{"pair", v.Primary, p})
		}
	}
	return out
}

// TestSplitPreservesSchedule pins the split invariants on every
// heuristic over random PI graphs: the concatenation of the segments'
// step sequences equals the original schedule step for step (no pair
// lost, duplicated, reordered, or straddling a cut), segments are
// balanced within one step, and Workers=1 is the identity.
func TestSplitPreservesSchedule(t *testing.T) {
	g := randomPI(t, 17, 30, 140)
	for _, h := range AllHeuristics() {
		s := h.Plan(g)
		want := stepSeq(s.Visits)

		if segs := s.Split(1); len(segs) != 1 || segs[0] != s {
			t.Fatalf("%s: Split(1) = %d segments, want the schedule itself", h.Name(), len(segs))
		}

		for _, workers := range []int{2, 3, 4, 7, 16, len(want) + 5} {
			segs := s.Split(workers)
			if len(segs) > workers {
				t.Fatalf("%s workers=%d: %d segments", h.Name(), workers, len(segs))
			}
			var got []event
			minSteps, maxSteps := int(^uint(0)>>1), 0
			for _, seg := range segs {
				if seg.NumPartitions != s.NumPartitions {
					t.Fatalf("%s workers=%d: segment over %d partitions, schedule has %d",
						h.Name(), workers, seg.NumPartitions, s.NumPartitions)
				}
				steps := stepSeq(seg.Visits)
				if len(steps) == 0 {
					t.Fatalf("%s workers=%d: empty segment", h.Name(), workers)
				}
				if len(steps) < minSteps {
					minSteps = len(steps)
				}
				if len(steps) > maxSteps {
					maxSteps = len(steps)
				}
				got = append(got, steps...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d steps across segments, schedule has %d",
					h.Name(), workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: step %d = %+v, schedule has %+v",
						h.Name(), workers, i, got[i], want[i])
				}
			}
			if maxSteps-minSteps > 1 {
				t.Errorf("%s workers=%d: segment sizes span [%d,%d], want balance within 1",
					h.Name(), workers, minSteps, maxSteps)
			}
		}
	}
}

// TestSimulateWorkersSumsSegments: the (Slots, Workers) simulation is
// exactly the sum of the per-segment Slots simulations — the
// deterministic totals the engine asserts against — and Workers=1
// reproduces the single-cursor counts bit for bit.
func TestSimulateWorkersSumsSegments(t *testing.T) {
	g := randomPI(t, 41, 25, 110)
	for _, h := range AllHeuristics() {
		s := h.Plan(g)
		single, err := s.Simulate(ExecOptions{Slots: 2})
		if err != nil {
			t.Fatal(err)
		}
		one, err := s.Simulate(ExecOptions{Slots: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if one != single {
			t.Fatalf("%s: Workers=1 simulation %+v, single-cursor %+v", h.Name(), one, single)
		}
		for _, slots := range []int{2, 4} {
			for _, workers := range []int{2, 3, 4} {
				got, err := s.Simulate(ExecOptions{Slots: slots, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var want Result
				for _, seg := range s.Split(workers) {
					r, err := seg.Simulate(ExecOptions{Slots: slots})
					if err != nil {
						t.Fatal(err)
					}
					want.Add(r)
				}
				if got != want {
					t.Fatalf("%s slots=%d workers=%d: simulation %+v, segment sum %+v",
						h.Name(), slots, workers, got, want)
				}
				if got.Pairs != single.Pairs || got.Selfs != single.Selfs {
					t.Fatalf("%s slots=%d workers=%d: %d pairs/%d selfs, schedule has %d/%d",
						h.Name(), slots, workers, got.Pairs, got.Selfs, single.Pairs, single.Selfs)
				}
			}
		}
	}
}

// splitTraceCallbacks records the same events as traceCallbacks but
// through the split halves only: Commit records the load and Evict the
// unload — both run on the cursor at the op's tape position, whether
// the other half ran in the background (depth > 0) or was composed
// synchronously (depth 0) — so one callback set serves every depth.
func splitTraceCallbacks(trace *[]event) Callbacks {
	cb := traceCallbacks(trace)
	load, unload := cb.Load, cb.Unload
	cb.Load, cb.Unload = nil, nil
	cb.Fetch = func(p uint32) (any, error) { return nil, nil }
	cb.Commit = func(p uint32, _ any) error { return load(p) }
	cb.Evict = func(p uint32) (any, error) { return nil, unload(p) }
	cb.Flush = func(uint32, any) error { return nil }
	return cb
}

// counts strips the fields that describe how an execution overlapped
// its I/O, leaving what the tape alone determines.
func counts(r Result) Result {
	r.PrefetchedLoads, r.AsyncUnloads = 0, 0
	return r
}

// TestExecuteParallelMatchesPerSegmentSerial runs the one executor at
// W ∈ {1,2,4} × pipelining depth ∈ {0,2} with per-worker trace
// callbacks: every worker's callback sequence must equal the
// single-cursor execution of its own segment — the referenceExecute
// oracle at Slots=2, a W=1 depth-0 run of the segment at Slots=3 — each
// worker must respect its own Slots residency bound, and the summed
// Result must equal both the per-worker sum and Simulate(opts).
func TestExecuteParallelMatchesPerSegmentSerial(t *testing.T) {
	g := randomPI(t, 29, 30, 150)
	for _, h := range AllHeuristics() {
		s := h.Plan(g)
		for _, workers := range []int{1, 2, 4} {
			for _, depth := range []int{0, 2} {
				for _, slots := range []int{2, 3} {
					name := fmt.Sprintf("%s workers=%d depth=%d slots=%d", h.Name(), workers, depth, slots)
					opts := ExecOptions{Slots: slots, Workers: workers, PrefetchDepth: depth, WritebackDepth: depth, ShardAhead: depth}
					segs := s.Split(workers)

					traces := make([][]event, len(segs))
					residents := make([]map[uint32]bool, len(segs))
					var mu sync.Mutex // guards t.Errorf from worker goroutines
					cbFor := func(w int) Callbacks {
						residents[w] = make(map[uint32]bool)
						cb := splitTraceCallbacks(&traces[w])
						commit, evict := cb.Commit, cb.Evict
						cb.Commit = func(p uint32, data any) error {
							residents[w][p] = true
							if len(residents[w]) > slots {
								mu.Lock()
								t.Errorf("%s: worker %d holds %d partitions", name, w, len(residents[w]))
								mu.Unlock()
							}
							return commit(p, data)
						}
						cb.Evict = func(p uint32) (any, error) {
							delete(residents[w], p)
							return evict(p)
						}
						cb.PairAhead = func(uint32, uint32) {}
						return cb
					}
					total, per, err := s.ExecuteParallel(cbFor, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(per) != len(segs) {
						t.Fatalf("%s: %d per-worker results, %d segments", name, len(per), len(segs))
					}

					var sum Result
					for w, seg := range segs {
						var want []event
						var wantRes Result
						if slots == 2 {
							wantRes, err = referenceExecute(seg, traceCallbacks(&want))
						} else {
							wantRes, err = execute(seg, traceCallbacks(&want), ExecOptions{Slots: slots})
						}
						if err != nil {
							t.Fatal(err)
						}
						if counts(per[w]) != wantRes {
							t.Fatalf("%s: worker %d result %+v, serial segment %+v", name, w, per[w], wantRes)
						}
						if !slices.Equal(traces[w], want) {
							t.Fatalf("%s: worker %d trace differs from its serial segment:\n%v\n%v", name, w, traces[w], want)
						}
						sum.Add(per[w])
					}
					if total != sum {
						t.Fatalf("%s: total %+v, per-worker sum %+v", name, total, sum)
					}
					if depth > 0 && total.Loads > int64(2*len(segs)) && (total.PrefetchedLoads == 0 || total.AsyncUnloads != total.Unloads) {
						t.Errorf("%s: streams enabled but idle: %+v", name, total)
					}
					sim, err := s.Simulate(opts)
					if err != nil {
						t.Fatal(err)
					}
					if counts(total) != sim {
						t.Fatalf("%s: executed %+v, simulated %+v", name, total, sim)
					}
				}
			}
		}
	}
}

// TestExecuteParallelPipelinedWorkers: each worker runs the full
// pipelined machinery over its own segment — prefetched loads and
// async unloads appear in every worker's result, and the accounting
// still sums to the deterministic totals (run under -race in CI).
func TestExecuteParallelPipelinedWorkers(t *testing.T) {
	g := randomPI(t, 57, 24, 120)
	s := DegreeLowHigh().Plan(g)
	const workers = 4
	opts := ExecOptions{Slots: 2, Workers: workers, PrefetchDepth: 2, WritebackDepth: 2}

	stores := make([]*fakeStore, workers)
	traces := make([][]event, workers)
	cbFor := func(w int) Callbacks {
		stores[w] = newFakeStore()
		cb := stores[w].callbacks(&traces[w])
		cb.Load, cb.Unload = nil, nil // force the async halves
		return cb
	}
	total, per, err := s.ExecuteParallel(cbFor, opts)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := s.Simulate(ExecOptions{Slots: 2, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if total.Loads != sim.Loads || total.Unloads != sim.Unloads {
		t.Fatalf("executed %d/%d loads/unloads, simulated %d/%d", total.Loads, total.Unloads, sim.Loads, sim.Unloads)
	}
	if total.AsyncUnloads != total.Unloads {
		t.Errorf("%d of %d unloads async", total.AsyncUnloads, total.Unloads)
	}
	if total.PrefetchedLoads == 0 {
		t.Error("no loads were prefetched")
	}
	for w, r := range per {
		if r.Loads > 2 && r.PrefetchedLoads == 0 {
			t.Errorf("worker %d: %d loads, none prefetched", w, r.Loads)
		}
	}
}

// TestExecuteParallelPropagatesWorkerError: a failing callback in one
// worker surfaces as the call's error annotated with the worker index,
// every other worker still runs to completion, and the failing
// worker's background work is drained (fetched values all committed or
// discarded).
func TestExecuteParallelPropagatesWorkerError(t *testing.T) {
	g := randomPI(t, 5, 20, 90)
	s := Sequential{}.Plan(g)
	const workers = 3
	boom := errors.New("pair boom")

	var fetched, committed, discarded atomic.Int64
	var completed atomic.Int64
	cbFor := func(w int) Callbacks {
		var pairs int
		cb := Callbacks{
			Fetch:   func(p uint32) (any, error) { fetched.Add(1); return int(p), nil },
			Commit:  func(p uint32, data any) error { committed.Add(1); return nil },
			Discard: func(p uint32, data any) { discarded.Add(1) },
			Unload:  func(p uint32) error { return nil },
			Pair: func(a, b uint32) error {
				if w == 1 {
					pairs++
					if pairs > 2 {
						return boom
					}
				}
				return nil
			},
			Self: func(p uint32) error { return nil },
		}
		if w != 1 {
			cb.Unload = func(p uint32) error { completed.Add(1); return nil }
		}
		return cb
	}
	_, per, err := s.ExecuteParallel(cbFor, ExecOptions{Slots: 2, Workers: workers, PrefetchDepth: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !strings.Contains(err.Error(), "worker 1/") {
		t.Errorf("error %q does not name the failing worker", err)
	}
	if len(per) != workers {
		t.Fatalf("%d per-worker results, want %d", len(per), workers)
	}
	for w, r := range per {
		if w == 1 {
			continue
		}
		if r.Loads == 0 || r.Loads != r.Unloads {
			t.Errorf("worker %d did not run to completion: %+v", w, r)
		}
	}
	if completed.Load() == 0 {
		t.Error("no sibling worker drained its residency after the failure")
	}
	if got := committed.Load() + discarded.Load(); got != fetched.Load() {
		t.Errorf("%d fetched, %d committed + %d discarded", fetched.Load(), committed.Load(), discarded.Load())
	}
}

// TestSplitDeterministic: two splits of the same schedule are
// structurally identical — the property that makes the per-worker
// accounting reproducible.
func TestSplitDeterministic(t *testing.T) {
	g := randomPI(t, 77, 28, 130)
	s := DegreeHighLow().Plan(g)
	for _, workers := range []int{2, 5} {
		a, b := s.Split(workers), s.Split(workers)
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d vs %d segments", workers, len(a), len(b))
		}
		for i := range a {
			as, bs := fmt.Sprintf("%+v", a[i].Visits), fmt.Sprintf("%+v", b[i].Visits)
			if as != bs {
				t.Fatalf("workers=%d segment %d differs:\n%s\n%s", workers, i, as, bs)
			}
		}
	}
}
