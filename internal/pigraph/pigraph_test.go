package pigraph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/graph"
	"knnpc/internal/partition"
	"knnpc/internal/tuples"
)

func TestAddShardMergesDirections(t *testing.T) {
	g := New(3)
	if err := g.AddShard(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddShard(1, 0, 3); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("reciprocal shards should merge: edges=%d", g.NumEdges())
	}
	if got := g.Weight(0, 1); got != 8 {
		t.Errorf("Weight(0,1) = %d, want 8", got)
	}
	if got := g.Weight(1, 0); got != 8 {
		t.Errorf("Weight(1,0) = %d, want 8 (undirected)", got)
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Error("degrees wrong")
	}
}

func TestAddShardSelfAndValidation(t *testing.T) {
	g := New(2)
	if err := g.AddShard(1, 1, 4); err != nil {
		t.Fatal(err)
	}
	if g.SelfWeight(1) != 4 || g.NumEdges() != 0 {
		t.Errorf("self weight=%d edges=%d", g.SelfWeight(1), g.NumEdges())
	}
	if err := g.AddShard(0, 5, 1); err == nil {
		t.Error("out-of-range shard should fail")
	}
	if err := g.AddShard(0, 1, 0); err != nil || g.NumEdges() != 0 {
		t.Error("zero weight should be a no-op")
	}
}

func TestFromDigraph(t *testing.T) {
	dg := graph.NewDigraph(3)
	dg.AddEdge(0, 1)
	dg.AddEdge(1, 0) // reciprocal
	dg.AddEdge(1, 2)
	g, err := FromDigraph(dg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges=%d, want 2 (reciprocal merged)", g.NumEdges())
	}
	if g.Weight(0, 1) != 2 || g.Weight(1, 2) != 1 {
		t.Error("weights wrong")
	}
	if !reflect.DeepEqual(g.Neighbors(1), []uint32{0, 2}) {
		t.Errorf("Neighbors(1) = %v", g.Neighbors(1))
	}
}

func TestFromTupleCounts(t *testing.T) {
	counts := map[tuples.ShardID]int64{
		{I: 0, J: 1}: 7,
		{I: 1, J: 0}: 2,
		{I: 2, J: 2}: 9,
	}
	g, err := FromTupleCounts(3, counts)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 9 || g.SelfWeight(2) != 9 || g.NumEdges() != 1 {
		t.Errorf("graph wrong: w01=%d self2=%d edges=%d", g.Weight(0, 1), g.SelfWeight(2), g.NumEdges())
	}
	if _, err := FromTupleCounts(2, counts); err == nil {
		t.Error("out-of-range shard id should fail")
	}
}

// TestUndirectedCensusBuildsTheSamePIGraph: on random tuple multisets,
// the tuple table's undirected ShardCounts and the directed census (one
// count per (partition(s), partition(d))) build one identical PI graph
// (edges, adj weights, self weights), so every planner's visits — and
// the ops goldens they imply — cannot move with the shard layout.
func TestUndirectedCensusBuildsTheSamePIGraph(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, m := 4+r.Intn(60), 1+r.Intn(10)
		of := make([]uint32, n)
		for u := range of {
			of[u] = uint32(r.Intn(m))
		}
		a, err := partition.NewAssignment(of, m)
		if err != nil {
			t.Fatal(err)
		}
		stream := make([]tuples.Tuple, r.Intn(1500))
		directed := make(map[tuples.ShardID]int64)
		for i := range stream {
			tu := tuples.Tuple{S: uint32(r.Intn(n)), D: uint32(r.Intn(n))}
			stream[i] = tu
			directed[tuples.ShardID{I: a.Of(tu.S), J: a.Of(tu.D)}]++
		}
		table := tuples.NewDiskTable(a, nil, new(disk.IOStats), 0)
		if err := table.AddBatch(stream); err != nil {
			t.Fatal(err)
		}
		want, err := FromTupleCounts(m, directed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromTupleCounts(m, table.ShardCounts())
		if err != nil {
			t.Fatal(err)
		}
		table.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: undirected census built %+v, directed %+v", seed, got, want)
		}
		for slots := 2; slots <= 4; slots++ {
			for workers := 1; workers <= 3; workers++ {
				for _, h := range heuristicsFor(slots, workers) {
					if g, w := h.Plan(got), h.Plan(want); !reflect.DeepEqual(g.Visits, w.Visits) {
						t.Fatalf("seed %d %s S=%d W=%d: visits diverge", seed, h.Name(), slots, workers)
					}
				}
			}
		}
	}
}

// --- schedule and simulation ---

func TestSequentialHandComputedPath(t *testing.T) {
	// Path 0—1: one visit (0 with peer 1): load 0, load 1, drain 2.
	g := New(2)
	g.AddShard(0, 1, 1)
	s := (Sequential{}).Plan(g)
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	r := simulate(t, s)
	if r.Loads != 2 || r.Unloads != 2 || r.Pairs != 1 {
		t.Errorf("path result = %+v, want 2/2/1", r)
	}
}

func TestSequentialHandComputedTriangle(t *testing.T) {
	// Triangle {0,1,2}. Sequential:
	//   visit 0 peers [1,2]: load0, load1, evict1 load2
	//   visit 1 peers [2]:   evict0 load1, (2 resident)
	//   drain: unload 1, 2
	// loads=4, unloads=4.
	g := New(3)
	g.AddShard(0, 1, 1)
	g.AddShard(1, 2, 1)
	g.AddShard(0, 2, 1)
	s := (Sequential{}).Plan(g)
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	r := simulate(t, s)
	if r.Loads != 4 || r.Unloads != 4 || r.Pairs != 3 {
		t.Errorf("triangle result = %+v, want loads=4 unloads=4 pairs=3", r)
	}
}

func TestSelfOnlyPartition(t *testing.T) {
	g := New(2)
	g.AddShard(1, 1, 3)
	for _, h := range AllHeuristics() {
		s := h.Plan(g)
		if err := s.Validate(g); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		r := simulate(t, s)
		if r.Loads != 1 || r.Unloads != 1 || r.Selfs != 1 || r.Pairs != 0 {
			t.Errorf("%s: self-only result = %+v", h.Name(), r)
		}
	}
}

func TestEmptyGraphEmptySchedule(t *testing.T) {
	g := New(4)
	for _, h := range AllHeuristics() {
		s := h.Plan(g)
		if len(s.Visits) != 0 {
			t.Errorf("%s: empty graph should produce empty schedule", h.Name())
		}
		if r := simulate(t, s); r.Ops() != 0 {
			t.Errorf("%s: empty schedule should cost 0 ops", h.Name())
		}
	}
}

func randomPI(t testing.TB, seed int64, n, m int) *PIGraph {
	t.Helper()
	dg, err := dataset.UniformRandom(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromDigraph(dg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllHeuristicsCoverEveryEdgeProperty(t *testing.T) {
	for _, h := range AllHeuristics() {
		h := h
		t.Run(h.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				n := 2 + r.Intn(40)
				m := min(3*n, n*(n-1))
				g := randomPI(t, seed, n, m)
				s := h.Plan(g)
				return s.Validate(g) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSimulateOpsBounds(t *testing.T) {
	// For any schedule: loads ≥ edges processed require both ends, and
	// ops ≤ 2×(2×pairs + visits): every pair costs at most one
	// load+unload, every visit at most one more.
	for _, h := range AllHeuristics() {
		g := randomPI(t, 42, 30, 90)
		s := h.Plan(g)
		r := simulate(t, s)
		if r.Pairs != int64(g.NumEdges()) {
			t.Errorf("%s: processed %d pairs, want %d", h.Name(), r.Pairs, g.NumEdges())
		}
		if r.Loads != r.Unloads {
			t.Errorf("%s: loads %d != unloads %d (all loaded must unload)", h.Name(), r.Loads, r.Unloads)
		}
		minLoads := int64(2) // at least two partitions touched
		maxLoads := int64(len(s.Visits)) + r.Pairs
		if r.Loads < minLoads || r.Loads > maxLoads {
			t.Errorf("%s: loads %d outside [%d,%d]", h.Name(), r.Loads, minLoads, maxLoads)
		}
	}
}

func TestDegreeHeuristicsBeatSequentialOnSkewedGraphs(t *testing.T) {
	// The paper's Table 1 finding: degree-based traversal saves roughly
	// 5–15% of load/unload ops versus sequential on real (heavy-tailed)
	// topologies. Check the direction on a skewed synthetic graph.
	dg, err := dataset.GraphSpec{Name: "skewed", Nodes: 1200, Edges: 12000, Alpha: 0.8, Seed: 7}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromDigraph(dg)
	if err != nil {
		t.Fatal(err)
	}
	seq := simulate(t, (Sequential{}).Plan(g)).Ops()
	hl := simulate(t, DegreeHighLow().Plan(g)).Ops()
	lh := simulate(t, DegreeLowHigh().Plan(g)).Ops()
	if hl >= seq {
		t.Errorf("High-Low (%d ops) should beat Sequential (%d ops)", hl, seq)
	}
	if lh >= seq {
		t.Errorf("Low-High (%d ops) should beat Sequential (%d ops)", lh, seq)
	}
	// The saving should be in a plausible band (paper: 5–15%); allow a
	// wide margin for the synthetic substitution.
	for name, ops := range map[string]int64{"High-Low": hl, "Low-High": lh} {
		saving := float64(seq-ops) / float64(seq)
		if saving < 0.01 || saving > 0.50 {
			t.Errorf("%s saving %.1f%% outside plausible band", name, 100*saving)
		}
	}
}

func TestMaxReuseAtLeastMatchesHighLow(t *testing.T) {
	g := randomPI(t, 11, 400, 2400)
	hl := simulate(t, DegreeHighLow().Plan(g)).Ops()
	mr := simulate(t, MaxReuse(2, 1).Plan(g)).Ops()
	if mr > hl {
		t.Errorf("Max-Reuse (%d) should not be worse than High-Low (%d)", mr, hl)
	}
}

func TestExecuteCallbackInvariants(t *testing.T) {
	g := randomPI(t, 13, 25, 70)
	s := DegreeLowHigh().Plan(g)

	resident := make(map[uint32]bool)
	var maxResident int
	cb := Callbacks{
		Load: func(p uint32) error {
			if resident[p] {
				t.Errorf("double load of %d", p)
			}
			resident[p] = true
			if len(resident) > maxResident {
				maxResident = len(resident)
			}
			return nil
		},
		Unload: func(p uint32) error {
			if !resident[p] {
				t.Errorf("unload of non-resident %d", p)
			}
			delete(resident, p)
			return nil
		},
		Pair: func(a, b uint32) error {
			if !resident[a] || !resident[b] {
				t.Errorf("pair {%d,%d} processed without both resident", a, b)
			}
			return nil
		},
		Self: func(p uint32) error {
			if !resident[p] {
				t.Errorf("self shard of %d processed while not resident", p)
			}
			return nil
		},
	}
	r, err := execute(s, cb, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if maxResident > 2 {
		t.Errorf("memory held %d partitions, budget is 2", maxResident)
	}
	if len(resident) != 0 {
		t.Errorf("%d partitions still resident after drain", len(resident))
	}
	if r.Pairs != int64(g.NumEdges()) {
		t.Errorf("pairs=%d want %d", r.Pairs, g.NumEdges())
	}
}

func TestExecutePropagatesCallbackErrors(t *testing.T) {
	g := New(2)
	g.AddShard(0, 1, 1)
	s := (Sequential{}).Plan(g)
	wantErr := func(cb Callbacks) {
		t.Helper()
		if _, err := execute(s, cb, ExecOptions{}); err == nil {
			t.Error("callback error should abort Execute")
		}
	}
	boom := func(uint32) error { return errTest }
	wantErr(Callbacks{Load: boom})
	wantErr(Callbacks{Pair: func(a, b uint32) error { return errTest }})

	g2 := New(1)
	g2.AddShard(0, 0, 1)
	s2 := (Sequential{}).Plan(g2)
	if _, err := execute(s2, Callbacks{Self: boom}, ExecOptions{}); err == nil {
		t.Error("self callback error should abort Execute")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

func TestValidateCatchesBadSchedules(t *testing.T) {
	g := New(3)
	g.AddShard(0, 1, 1)
	g.AddShard(1, 2, 1)

	tests := []struct {
		name string
		s    *Schedule
	}{
		{"missing edge", &Schedule{NumPartitions: 3, Visits: []Visit{{Primary: 0, Peers: []uint32{1}}}}},
		{"duplicate edge", &Schedule{NumPartitions: 3, Visits: []Visit{
			{Primary: 0, Peers: []uint32{1}},
			{Primary: 1, Peers: []uint32{0, 2}},
		}}},
		{"phantom edge", &Schedule{NumPartitions: 3, Visits: []Visit{
			{Primary: 0, Peers: []uint32{1, 2}},
			{Primary: 1, Peers: []uint32{2}},
		}}},
		{"self as peer", &Schedule{NumPartitions: 3, Visits: []Visit{
			{Primary: 0, Peers: []uint32{0, 1}},
			{Primary: 1, Peers: []uint32{2}},
		}}},
		{"phantom self", &Schedule{NumPartitions: 3, Visits: []Visit{
			{Primary: 0, Self: true, Peers: []uint32{1}},
			{Primary: 1, Peers: []uint32{2}},
		}}},
		{"wrong partition count", &Schedule{NumPartitions: 2, Visits: nil}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(g); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestHeuristicByName(t *testing.T) {
	for _, h := range AllHeuristics() {
		got, ok := HeuristicByName(h.Name(), 2, 1)
		if !ok || got.Name() != h.Name() {
			t.Errorf("HeuristicByName(%q) failed", h.Name())
		}
	}
	if _, ok := HeuristicByName("random", 2, 1); ok {
		t.Error("unknown heuristic should report false")
	}
	// The resolver builds Max-Reuse for the budget it is handed; 0
	// selects the executor's defaults.
	g := randomPI(t, 3, 30, 120)
	for _, b := range []struct{ slots, workers, wantSlots, wantWorkers int }{{4, 2, 4, 2}, {0, 0, 2, 1}} {
		h, _ := HeuristicByName("Max-Reuse", b.slots, b.workers)
		if got, want := h.Plan(g), MaxReuse(b.wantSlots, b.wantWorkers).Plan(g); !reflect.DeepEqual(got, want) {
			t.Errorf("HeuristicByName(Max-Reuse, %d, %d) did not plan for S=%d W=%d", b.slots, b.workers, b.wantSlots, b.wantWorkers)
		}
	}
}

func TestSchedulesAreDeterministic(t *testing.T) {
	g := randomPI(t, 17, 50, 200)
	for _, h := range AllHeuristics() {
		a, b := h.Plan(g), h.Plan(g)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: schedule not deterministic", h.Name())
		}
	}
}
