package pigraph

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// event records one callback invocation for trace comparison. A
// prefetched load commits at the same tape position a serial load would
// execute, so both record the same "load" event.
type event struct {
	kind string
	a, b uint32
}

// traceCallbacks returns callbacks that append every invocation to a
// shared trace, using the serial Load path only.
func traceCallbacks(trace *[]event) Callbacks {
	return Callbacks{
		Load:   func(p uint32) error { *trace = append(*trace, event{"load", p, 0}); return nil },
		Unload: func(p uint32) error { *trace = append(*trace, event{"unload", p, 0}); return nil },
		Pair:   func(a, b uint32) error { *trace = append(*trace, event{"pair", a, b}); return nil },
		Self:   func(p uint32) error { *trace = append(*trace, event{"self", p, 0}); return nil },
	}
}

// execute runs s through ExecuteParallel — the only entry point —
// handing the same callbacks to every worker and returning the summed
// result. With opts.Workers > 1 the callbacks must be safe for
// concurrent use.
func execute(s *Schedule, cb Callbacks, opts ExecOptions) (Result, error) {
	total, _, err := s.ExecuteParallel(func(int) Callbacks { return cb }, opts)
	return total, err
}

// simulate counts s's ops under the paper's setting (two slots, one
// cursor), which cannot fail.
func simulate(t testing.TB, s *Schedule) Result {
	t.Helper()
	r, err := s.Simulate(ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// referenceExecute is the original hard-coded two-slot serial executor
// (the pre-pipelining implementation), kept verbatim as the oracle for
// tape-equivalence testing: an execution with Slots=2 must reproduce
// its callback sequence op for op, per tape worker.
func referenceExecute(s *Schedule, cb Callbacks) (Result, error) {
	type refMachine struct {
		resident [2]int64
		lastUsed [2]int64
		tick     int64
		result   Result
	}
	sm := &refMachine{resident: [2]int64{-1, -1}}
	ensure := func(p uint32, pinned int64) error {
		sm.tick++
		for i := range sm.resident {
			if sm.resident[i] == int64(p) {
				sm.lastUsed[i] = sm.tick
				return nil
			}
		}
		slot := -1
		for i := range sm.resident {
			if sm.resident[i] == -1 {
				slot = i
				break
			}
		}
		if slot == -1 {
			best := int64(1) << 62
			for i := range sm.resident {
				if sm.resident[i] == pinned {
					continue
				}
				if sm.lastUsed[i] < best {
					best = sm.lastUsed[i]
					slot = i
				}
			}
			sm.result.Unloads++
			if cb.Unload != nil {
				if err := cb.Unload(uint32(sm.resident[slot])); err != nil {
					return err
				}
			}
		}
		sm.resident[slot] = int64(p)
		sm.lastUsed[slot] = sm.tick
		sm.result.Loads++
		if cb.Load != nil {
			return cb.Load(p)
		}
		return nil
	}
	for _, v := range s.Visits {
		if err := ensure(v.Primary, -1); err != nil {
			return sm.result, err
		}
		if v.Self {
			sm.result.Selfs++
			if cb.Self != nil {
				if err := cb.Self(v.Primary); err != nil {
					return sm.result, err
				}
			}
		}
		for _, peer := range v.Peers {
			if err := ensure(peer, int64(v.Primary)); err != nil {
				return sm.result, err
			}
			sm.result.Pairs++
			if cb.Pair != nil {
				if err := cb.Pair(v.Primary, peer); err != nil {
					return sm.result, err
				}
			}
		}
	}
	for i := range sm.resident {
		if sm.resident[i] == -1 {
			continue
		}
		sm.result.Unloads++
		if cb.Unload != nil {
			if err := cb.Unload(uint32(sm.resident[i])); err != nil {
				return sm.result, err
			}
		}
		sm.resident[i] = -1
	}
	return sm.result, nil
}

// TestTapeMatchesReferenceSerialExecutor pins the Table 1 invariant:
// the op-tape executor with the default options reproduces the original
// serial two-slot implementation event for event, on every heuristic
// over a spread of random PI graphs.
func TestTapeMatchesReferenceSerialExecutor(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		for _, shape := range []struct{ n, m int }{{8, 14}, {25, 80}, {60, 300}} {
			g := randomPI(t, seed, shape.n, shape.m)
			for _, h := range AllHeuristics() {
				s := h.Plan(g)

				var want []event
				wantRes, err := referenceExecute(s, traceCallbacks(&want))
				if err != nil {
					t.Fatal(err)
				}
				var got []event
				gotRes, err := execute(s, traceCallbacks(&got), ExecOptions{Slots: 2})
				if err != nil {
					t.Fatal(err)
				}

				if gotRes != wantRes {
					t.Fatalf("%s seed=%d n=%d: result %+v, reference %+v", h.Name(), seed, shape.n, gotRes, wantRes)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d events, reference %d", h.Name(), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: event %d = %+v, reference %+v", h.Name(), i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMultiSlotResidencyInvariants checks S-slot executions for every
// S: at most S partitions resident, pairs/selfs only touch resident
// partitions, loads and unloads balance to zero.
func TestMultiSlotResidencyInvariants(t *testing.T) {
	g := randomPI(t, 5, 30, 120)
	for _, slots := range []int{2, 3, 4, 8} {
		for _, h := range AllHeuristics() {
			s := h.Plan(g)
			resident := make(map[uint32]bool)
			maxResident := 0
			cb := Callbacks{
				Load: func(p uint32) error {
					if resident[p] {
						return fmt.Errorf("load of already-resident %d", p)
					}
					resident[p] = true
					if len(resident) > maxResident {
						maxResident = len(resident)
					}
					if len(resident) > slots {
						return fmt.Errorf("%d partitions resident with %d slots", len(resident), slots)
					}
					return nil
				},
				Unload: func(p uint32) error {
					if !resident[p] {
						return fmt.Errorf("unload of non-resident %d", p)
					}
					delete(resident, p)
					return nil
				},
				Pair: func(a, b uint32) error {
					if !resident[a] || !resident[b] {
						return fmt.Errorf("pair {%d,%d} with residency {%v,%v}", a, b, resident[a], resident[b])
					}
					return nil
				},
				Self: func(p uint32) error {
					if !resident[p] {
						return fmt.Errorf("self of non-resident %d", p)
					}
					return nil
				},
			}
			res, err := execute(s, cb, ExecOptions{Slots: slots})
			if err != nil {
				t.Fatalf("slots=%d %s: %v", slots, h.Name(), err)
			}
			if len(resident) != 0 {
				t.Fatalf("slots=%d %s: %d partitions resident after drain", slots, h.Name(), len(resident))
			}
			if res.Loads != res.Unloads {
				t.Fatalf("slots=%d %s: %d loads vs %d unloads", slots, h.Name(), res.Loads, res.Unloads)
			}
			if res.PrefetchedLoads != 0 {
				t.Fatalf("slots=%d %s: serial run reported %d prefetched loads", slots, h.Name(), res.PrefetchedLoads)
			}
		}
	}
}

// TestMoreSlotsNeverIncreaseOps: growing the budget can only help the
// LRU slot machine on these workloads (each extra slot keeps strictly
// more history resident).
func TestMoreSlotsNeverIncreaseOps(t *testing.T) {
	g := randomPI(t, 99, 40, 200)
	simOps := func(s *Schedule, slots int) int64 {
		t.Helper()
		r, err := s.Simulate(ExecOptions{Slots: slots})
		if err != nil {
			t.Fatal(err)
		}
		return r.Ops()
	}
	for _, h := range AllHeuristics() {
		s := h.Plan(g)
		prev := simOps(s, 2)
		for _, slots := range []int{3, 4, 6, 40} {
			ops := simOps(s, slots)
			if ops > prev {
				t.Errorf("%s: slots=%d ops=%d exceeds smaller budget's %d", h.Name(), slots, ops, prev)
			}
			prev = ops
		}
	}
}

// TestSimulateReturnsValidationError: invalid options surface as an
// error, not a panic.
func TestSimulateReturnsValidationError(t *testing.T) {
	g := randomPI(t, 2, 6, 10)
	s := Sequential{}.Plan(g)
	if _, err := s.Simulate(ExecOptions{Slots: 1}); err == nil {
		t.Error("Slots=1 accepted by Simulate")
	}
}

// fakeStore simulates the engine's partition store for pipelined
// execution: Unload (or the asynchronous Evict/Flush pair) writes a new
// version of the partition's payload, Fetch reads the current version.
// If the executor ever fetched ahead of a pending write-back (the
// stale-read hazard) or ran two fetches of one partition concurrently
// with its unload, the versions observed at commit time would disagree
// with serial execution. flushDelay widens the write-in-flight window
// so the hazard is actually exercised, not just possible.
type fakeStore struct {
	mu         sync.Mutex
	version    map[uint32]int
	resident   map[uint32]int // version each resident partition was loaded with
	inFetch    atomic.Int32
	maxFetch   int32 // guarded by mu
	inFlush    atomic.Int32
	maxFlush   int32 // guarded by mu
	flushDelay time.Duration
}

func newFakeStore() *fakeStore {
	return &fakeStore{version: make(map[uint32]int), resident: make(map[uint32]int)}
}

func (fs *fakeStore) callbacks(committed *[]event) Callbacks {
	return Callbacks{
		Load: func(p uint32) error {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			fs.resident[p] = fs.version[p]
			*committed = append(*committed, event{"load", p, uint32(fs.version[p])})
			return nil
		},
		Unload: func(p uint32) error {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			if _, ok := fs.resident[p]; !ok {
				return fmt.Errorf("unload of non-resident %d", p)
			}
			delete(fs.resident, p)
			fs.version[p]++ // write-back produces a new on-disk version
			return nil
		},
		Evict: func(p uint32) (any, error) {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			if _, ok := fs.resident[p]; !ok {
				return nil, fmt.Errorf("evict of non-resident %d", p)
			}
			delete(fs.resident, p)
			return int(p), nil
		},
		Flush: func(p uint32, data any) error {
			n := fs.inFlush.Add(1)
			defer fs.inFlush.Add(-1)
			if data.(int) != int(p) {
				return fmt.Errorf("flush of %d handed payload %v", p, data)
			}
			time.Sleep(fs.flushDelay) // the write is in flight: stale window
			fs.mu.Lock()
			if n > fs.maxFlush {
				fs.maxFlush = n
			}
			fs.version[p]++ // only now does the disk hold the new version
			fs.mu.Unlock()
			return nil
		},
		Fetch: func(p uint32) (any, error) {
			n := fs.inFetch.Add(1)
			defer fs.inFetch.Add(-1)
			fs.mu.Lock()
			v := fs.version[p]
			if n > fs.maxFetch {
				fs.maxFetch = n
			}
			fs.mu.Unlock()
			return v, nil
		},
		Commit: func(p uint32, data any) error {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			v := data.(int)
			if v != fs.version[p] {
				return fmt.Errorf("partition %d committed stale version %d, disk has %d", p, v, fs.version[p])
			}
			fs.resident[p] = v
			*committed = append(*committed, event{"load", p, uint32(v)})
			return nil
		},
	}
}

// TestPipelinedMatchesSerial runs the same schedules serially and
// pipelined at several depths against the versioned fake store: the
// counts must be identical, every commit must see the freshest
// write-back (no stale prefetch), and the committed version sequence
// must equal the serial one.
func TestPipelinedMatchesSerial(t *testing.T) {
	g := randomPI(t, 3, 30, 140)
	for _, h := range AllHeuristics() {
		s := h.Plan(g)

		serialStore := newFakeStore()
		var serialEvents []event
		serialCB := serialStore.callbacks(&serialEvents)
		serialCB.Fetch, serialCB.Commit = nil, nil
		serialRes, err := execute(s, serialCB, ExecOptions{Slots: 2})
		if err != nil {
			t.Fatal(err)
		}

		for _, depth := range []int{1, 2, 5} {
			store := newFakeStore()
			var events []event
			cb := store.callbacks(&events)
			cb.Load = nil // force the fetch/commit path for every load
			res, err := execute(s, cb, ExecOptions{Slots: 2, PrefetchDepth: depth})
			if err != nil {
				t.Fatalf("%s depth=%d: %v", h.Name(), depth, err)
			}
			if res.Loads != serialRes.Loads || res.Unloads != serialRes.Unloads ||
				res.Pairs != serialRes.Pairs || res.Selfs != serialRes.Selfs {
				t.Fatalf("%s depth=%d: counts %+v, serial %+v", h.Name(), depth, res, serialRes)
			}
			if res.Loads > 2 && res.PrefetchedLoads == 0 {
				t.Errorf("%s depth=%d: no loads were prefetched", h.Name(), depth)
			}
			if res.PrefetchedLoads > res.Loads {
				t.Errorf("%s depth=%d: %d prefetched of %d loads", h.Name(), depth, res.PrefetchedLoads, res.Loads)
			}
			if len(events) != len(serialEvents) {
				t.Fatalf("%s depth=%d: %d load events, serial %d", h.Name(), depth, len(events), len(serialEvents))
			}
			for i := range events {
				if events[i] != serialEvents[i] {
					t.Fatalf("%s depth=%d: load event %d = %+v, serial %+v", h.Name(), depth, i, events[i], serialEvents[i])
				}
			}
		}
	}
}

// TestPrefetchDepthBoundsConcurrency: no more than depth fetches run
// concurrently.
func TestPrefetchDepthBoundsConcurrency(t *testing.T) {
	g := randomPI(t, 21, 40, 220)
	s := DegreeLowHigh().Plan(g)
	for _, depth := range []int32{1, 3} {
		store := newFakeStore()
		var events []event
		cb := store.callbacks(&events)
		cb.Load = nil
		if _, err := execute(s, cb, ExecOptions{Slots: 2, PrefetchDepth: int(depth)}); err != nil {
			t.Fatal(err)
		}
		if store.maxFetch > depth {
			t.Errorf("depth=%d: observed %d concurrent fetches", depth, store.maxFetch)
		}
	}
}

// TestPipelinedPropagatesErrors: fetch and commit failures surface at
// the load's tape position with no goroutine left running, and every
// successfully fetched but never-committed value is handed back
// through Discard.
func TestPipelinedPropagatesErrors(t *testing.T) {
	g := randomPI(t, 2, 12, 30)
	s := Sequential{}.Plan(g)
	boom := errors.New("boom")

	var fetches, committed, discarded atomic.Int64
	cb := Callbacks{
		Fetch: func(p uint32) (any, error) {
			if fetches.Add(1) > 3 {
				return nil, boom
			}
			return int(p), nil
		},
		Commit: func(p uint32, data any) error { committed.Add(1); return nil },
		Discard: func(p uint32, data any) {
			discarded.Add(1)
			if data.(int) != int(p) {
				t.Errorf("discard of %d handed payload %v", p, data)
			}
		},
	}
	_, err := execute(s, cb, ExecOptions{Slots: 2, PrefetchDepth: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Every successful fetch either committed or was discarded; the
	// failed fetch was neither.
	ok := fetches.Load()
	if ok > 3 {
		ok = 3 // fetches beyond the third failed
	}
	if committed.Load()+discarded.Load() != ok {
		t.Errorf("%d fetched ok, %d committed + %d discarded", ok, committed.Load(), discarded.Load())
	}
}

// TestExecOptionsValidation is the table test of the option validator:
// out-of-range budgets are rejected with a descriptive error (never
// silently clamped), and the same answer comes back from Validate,
// ExecuteParallel and Simulate.
func TestExecOptionsValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    ExecOptions
		wantErr bool
	}{
		{"zero value (documented defaults)", ExecOptions{}, false},
		{"paper setting", ExecOptions{Slots: 2}, false},
		{"full pipeline", ExecOptions{Slots: 4, PrefetchDepth: 3, WritebackDepth: 2, ShardAhead: 2}, false},
		{"sharded tape", ExecOptions{Slots: 2, Workers: 4}, false},
		{"one slot", ExecOptions{Slots: 1}, true},
		{"negative slots", ExecOptions{Slots: -2}, true},
		{"negative prefetch depth", ExecOptions{PrefetchDepth: -1}, true},
		{"negative write-back depth", ExecOptions{WritebackDepth: -1}, true},
		{"negative shard lookahead", ExecOptions{ShardAhead: -3}, true},
		{"negative workers", ExecOptions{Workers: -2}, true},
	}
	g := randomPI(t, 2, 6, 10)
	s := Sequential{}.Plan(g)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("Validate() = %v, want error: %v", err, tc.wantErr)
			}
			if err != nil && len(err.Error()) < 40 {
				t.Errorf("error %q is not descriptive", err)
			}
			if _, execErr := execute(s, Callbacks{}, tc.opts); (execErr != nil) != tc.wantErr {
				t.Errorf("ExecuteParallel error = %v, want error: %v", execErr, tc.wantErr)
			}
			if _, simErr := s.Simulate(tc.opts); (simErr != nil) != tc.wantErr {
				t.Errorf("Simulate error = %v, want error: %v", simErr, tc.wantErr)
			}
		})
	}
}

// TestAsyncWritebackMatchesSerial sweeps the full pipelining matrix —
// slots × prefetch depth × write-back bound — against the versioned
// fake store: the Loads/Unloads accounting must equal the serial
// executor's for the same slot budget, every commit must observe the
// freshest write-back, and the committed version sequence must be
// identical to serial execution. The flush delay keeps writes in
// flight while the cursor races ahead, so the symmetric hazard is
// genuinely exercised (run under -race in CI).
func TestAsyncWritebackMatchesSerial(t *testing.T) {
	g := randomPI(t, 11, 18, 60)
	for _, h := range AllHeuristics() {
		s := h.Plan(g)
		for _, slots := range []int{2, 3, 4} {
			serialStore := newFakeStore()
			var serialEvents []event
			serialCB := serialStore.callbacks(&serialEvents)
			serialCB.Fetch, serialCB.Commit, serialCB.Evict, serialCB.Flush = nil, nil, nil, nil
			serialRes, err := execute(s, serialCB, ExecOptions{Slots: slots})
			if err != nil {
				t.Fatal(err)
			}

			for _, depth := range []int{0, 1, 3} {
				for _, wbDepth := range []int{1, 2} {
					name := fmt.Sprintf("%s slots=%d depth=%d wb=%d", h.Name(), slots, depth, wbDepth)
					store := newFakeStore()
					store.flushDelay = 100 * time.Microsecond
					var events []event
					cb := store.callbacks(&events)
					cb.Load, cb.Unload = nil, nil // force the async halves
					res, err := execute(s, cb, ExecOptions{Slots: slots, PrefetchDepth: depth, WritebackDepth: wbDepth})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Loads != serialRes.Loads || res.Unloads != serialRes.Unloads {
						t.Fatalf("%s: %d/%d loads/unloads, serial %d/%d",
							name, res.Loads, res.Unloads, serialRes.Loads, serialRes.Unloads)
					}
					if res.AsyncUnloads == 0 || res.AsyncUnloads != res.Unloads {
						t.Errorf("%s: %d of %d unloads async", name, res.AsyncUnloads, res.Unloads)
					}
					if len(events) != len(serialEvents) {
						t.Fatalf("%s: %d load events, serial %d", name, len(events), len(serialEvents))
					}
					for i := range events {
						if events[i] != serialEvents[i] {
							t.Fatalf("%s: load event %d = %+v, serial %+v", name, i, events[i], serialEvents[i])
						}
					}
					if store.maxFlush > int32(wbDepth) {
						t.Errorf("%s: observed %d concurrent flushes", name, store.maxFlush)
					}
				}
			}
		}
	}
}

// TestPrefetchWaitsForInFlightWriteback pins the satellite hazard: a
// prefetched load of p issued while p's asynchronous write is still in
// flight must observe the written state. The schedule thrashes two of
// three partitions through two slots, so reloads follow their
// write-backs closely; the long flush delay guarantees the write is
// still in flight when the executor wants the reload, and the fake
// store's version check in Commit fails if the fetch did not wait.
func TestPrefetchWaitsForInFlightWriteback(t *testing.T) {
	s := &Schedule{
		NumPartitions: 3,
		Visits: []Visit{
			{Primary: 0, Peers: []uint32{1, 2}},
			{Primary: 1, Peers: []uint32{2}},
			{Primary: 0, Peers: []uint32{1}},
			{Primary: 2, Peers: []uint32{0}},
			{Primary: 1, Peers: []uint32{0}},
		},
	}
	store := newFakeStore()
	store.flushDelay = 2 * time.Millisecond
	var events []event
	cb := store.callbacks(&events)
	cb.Load, cb.Unload = nil, nil
	res, err := execute(s, cb, ExecOptions{Slots: 2, PrefetchDepth: 2, WritebackDepth: 2})
	if err != nil {
		t.Fatal(err) // a stale read surfaces here as a Commit error
	}
	if res.PrefetchedLoads == 0 {
		t.Fatal("no loads were prefetched — the hazard was never exercised")
	}
	if res.AsyncUnloads == 0 {
		t.Fatal("no unloads were async — the hazard was never exercised")
	}
}

// TestWritebackPropagatesErrors: a failing flush surfaces as the
// execution's error — at the bounded-writer admission, at the load
// that waits on it, or at the final drain — and no goroutine or
// un-discarded fetch is left behind.
func TestWritebackPropagatesErrors(t *testing.T) {
	g := randomPI(t, 7, 14, 40)
	s := DegreeLowHigh().Plan(g)
	boom := errors.New("flush boom")

	var flushes, committed, discarded atomic.Int64
	var fetched atomic.Int64
	cb := Callbacks{
		Evict: func(p uint32) (any, error) { return int(p), nil },
		Flush: func(p uint32, data any) error {
			if flushes.Add(1) > 2 {
				return boom
			}
			return nil
		},
		Fetch:   func(p uint32) (any, error) { fetched.Add(1); return int(p), nil },
		Commit:  func(p uint32, data any) error { committed.Add(1); return nil },
		Discard: func(p uint32, data any) { discarded.Add(1) },
	}
	_, err := execute(s, cb, ExecOptions{Slots: 2, PrefetchDepth: 2, WritebackDepth: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if committed.Load()+discarded.Load() != fetched.Load() {
		t.Errorf("%d fetched, %d committed + %d discarded", fetched.Load(), committed.Load(), discarded.Load())
	}
}

// TestCommitFailureDiscardsStagedFetch pins the staged-memory half of
// the error-path contract: a load whose Commit fails must hand the
// fetched value back through Discard before the error aborts the run —
// otherwise the resources Fetch charged (the engine's memory budget)
// leak into every later iteration.
func TestCommitFailureDiscardsStagedFetch(t *testing.T) {
	g := randomPI(t, 31, 14, 44)
	s := DegreeLowHigh().Plan(g)
	boom := errors.New("commit boom")

	for _, depth := range []int{0, 3} { // 0 exercises the serial fetch/commit fallback
		var fetched, committed, discarded atomic.Int64
		cb := Callbacks{
			Fetch: func(p uint32) (any, error) { fetched.Add(1); return int(p), nil },
			Commit: func(p uint32, data any) error {
				if committed.Load() >= 2 {
					return boom
				}
				committed.Add(1)
				return nil
			},
			Discard: func(p uint32, data any) {
				discarded.Add(1)
				if data.(int) != int(p) {
					t.Errorf("discard of %d handed payload %v", p, data)
				}
			},
		}
		opts := ExecOptions{Slots: 2, PrefetchDepth: depth}
		if depth > 0 {
			opts.WritebackDepth = 1
			cb.Evict = func(p uint32) (any, error) { return int(p), nil }
			cb.Flush = func(p uint32, data any) error { return nil }
		}
		_, err := execute(s, cb, opts)
		if !errors.Is(err, boom) {
			t.Fatalf("depth=%d: err = %v, want %v", depth, err, boom)
		}
		if committed.Load()+discarded.Load() != fetched.Load() {
			t.Errorf("depth=%d: %d fetched, %d committed + %d discarded — the failed commit leaked its payload",
				depth, fetched.Load(), committed.Load(), discarded.Load())
		}
	}
}

// TestMidTapeErrorDrainsPipeline injects a failure into each of the
// three cursor-side step kinds (Pair, Self, and the write-back Flush)
// mid-tape with the full pipeline running, and asserts the executor
// returns only after every background goroutine has drained: no fetch
// or flush is still in flight, every successfully fetched value was
// committed or discarded, and every started flush finished.
func TestMidTapeErrorDrainsPipeline(t *testing.T) {
	g := randomPI(t, 47, 16, 60)
	// UniformRandom graphs rarely carry self-loops; give every
	// partition a self-shard so the "self" injection point exists.
	for i := uint32(0); int(i) < g.NumPartitions(); i++ {
		if err := g.AddShard(i, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	s := DegreeHighLow().Plan(g)
	boom := errors.New("mid-tape boom")

	for _, kind := range []string{"pair", "self", "flush"} {
		var fetched, committed, discarded atomic.Int64
		var flushStarted, flushDone atomic.Int64
		var inFlightFetch, inFlightFlush atomic.Int32
		var steps atomic.Int64
		fail := func() bool { return steps.Add(1) > 3 }
		cb := Callbacks{
			Fetch: func(p uint32) (any, error) {
				inFlightFetch.Add(1)
				defer inFlightFetch.Add(-1)
				fetched.Add(1)
				return int(p), nil
			},
			Commit:  func(p uint32, data any) error { committed.Add(1); return nil },
			Discard: func(p uint32, data any) { discarded.Add(1) },
			Evict:   func(p uint32) (any, error) { return int(p), nil },
			Flush: func(p uint32, data any) error {
				inFlightFlush.Add(1)
				defer inFlightFlush.Add(-1)
				flushStarted.Add(1)
				defer flushDone.Add(1)
				if kind == "flush" && fail() {
					return boom
				}
				return nil
			},
			Pair: func(a, b uint32) error {
				if kind == "pair" && fail() {
					return boom
				}
				return nil
			},
			Self: func(p uint32) error {
				if kind == "self" && fail() {
					return boom
				}
				return nil
			},
			PairAhead: func(a, b uint32) {},
		}
		_, err := execute(s, cb, ExecOptions{Slots: 2, PrefetchDepth: 3, WritebackDepth: 2, ShardAhead: 2})
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want %v", kind, err, boom)
		}
		if n := inFlightFetch.Load(); n != 0 {
			t.Errorf("%s: %d fetches still in flight after return", kind, n)
		}
		if n := inFlightFlush.Load(); n != 0 {
			t.Errorf("%s: %d flushes still in flight after return", kind, n)
		}
		if flushStarted.Load() != flushDone.Load() {
			t.Errorf("%s: %d flushes started, %d finished", kind, flushStarted.Load(), flushDone.Load())
		}
		if committed.Load()+discarded.Load() != fetched.Load() {
			t.Errorf("%s: %d fetched, %d committed + %d discarded", kind, fetched.Load(), committed.Load(), discarded.Load())
		}
	}
}

// TestShardAheadAnnouncements: with ShardAhead = w, every pair/self is
// announced exactly once before the cursor processes it, and never
// more than w pair/self steps early.
func TestShardAheadAnnouncements(t *testing.T) {
	g := randomPI(t, 13, 25, 110)
	s := DegreeHighLow().Plan(g)
	for _, w := range []int{1, 2, 5} {
		type pairKey struct{ a, b uint32 }
		announced := make(map[pairKey]int) // pending announcements per pair
		ahead := 0
		maxAhead := 0
		var processed, announcedTotal int64
		key := func(a, b uint32) pairKey {
			if a > b {
				a, b = b, a
			}
			return pairKey{a, b}
		}
		consume := func(a, b uint32) error {
			k := key(a, b)
			if announced[k] == 0 {
				return fmt.Errorf("pair {%d,%d} processed without announcement", a, b)
			}
			announced[k]--
			ahead--
			processed++
			return nil
		}
		cb := Callbacks{
			PairAhead: func(a, b uint32) {
				announced[key(a, b)]++
				announcedTotal++
				ahead++
				if ahead > maxAhead {
					maxAhead = ahead
				}
			},
			Pair: func(a, b uint32) error { return consume(a, b) },
			Self: func(p uint32) error { return consume(p, p) },
		}
		res, err := execute(s, cb, ExecOptions{Slots: 2, ShardAhead: w})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if announcedTotal != res.Pairs+res.Selfs {
			t.Errorf("w=%d: %d announcements for %d pair/self steps", w, announcedTotal, res.Pairs+res.Selfs)
		}
		if processed != res.Pairs+res.Selfs {
			t.Errorf("w=%d: consumed %d of %d steps", w, processed, res.Pairs+res.Selfs)
		}
		if maxAhead > w {
			t.Errorf("w=%d: window grew to %d", w, maxAhead)
		}
		if res.Loads == 0 || res.PrefetchedLoads != 0 || res.AsyncUnloads != 0 {
			t.Errorf("w=%d: shard-ahead-only run miscounted: %+v", w, res)
		}
	}
}
