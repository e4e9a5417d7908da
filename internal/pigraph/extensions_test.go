package pigraph

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"knnpc/internal/dataset"
	"knnpc/internal/tuples"
)

func TestExtensionHeuristicsCoverEveryEdgeProperty(t *testing.T) {
	for _, h := range []Heuristic{EdgeOrder{}, MaxReuse(3, 2)} {
		h := h
		t.Run(h.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				g := randomPI(t, seed, 20, 60)
				return h.Plan(g).Validate(g) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEdgeOrderIsTheWorstTraversal(t *testing.T) {
	// The naive edge-at-a-time baseline should cost clearly more than
	// any node-major heuristic — that gap is the paper's motivation.
	dg, err := dataset.GraphSpec{Name: "t", Nodes: 800, Edges: 6000, Alpha: 0.7, Seed: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromDigraph(dg)
	if err != nil {
		t.Fatal(err)
	}
	naive := simulate(t, (EdgeOrder{}).Plan(g)).Ops()
	for _, h := range Heuristics() {
		ops := simulate(t, h.Plan(g)).Ops()
		if naive <= ops {
			t.Errorf("Edge-Order (%d ops) should cost more than %s (%d ops)", naive, h.Name(), ops)
		}
	}
}

func TestMaxReuseHandlesSelfOnlyWeight(t *testing.T) {
	g := New(3)
	g.AddShard(1, 1, 50)
	s := MaxReuse(4, 2).Plan(g)
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if r := simulate(t, s); r.Selfs != 1 || r.Loads != 1 {
		t.Errorf("self-only result = %+v", r)
	}
}

// complete is K_m with a self-shard on every partition — the shape of
// the engine's PI graph at m=8 and m=32 in the benchmark's workloads.
func complete(t *testing.T, m int) *PIGraph {
	t.Helper()
	g := New(m)
	for i := uint32(0); int(i) < m; i++ {
		for j := i; int(j) < m; j++ {
			if err := g.AddShard(i, j, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestMaxReuseGoldenOps pins the planner on the benchmark's shapes.
// K8 at S=4, W=2 is iter-hdd's (Low-High costs 44 there, 56 before MIN
// eviction); K32 at S=2 is iter-cpu's, where 994 is the floor: every
// load after the first unlocks at most one of the 496 pairs.
func TestMaxReuseGoldenOps(t *testing.T) {
	for _, c := range []struct{ m, slots, workers, want int }{{8, 4, 2, 28}, {32, 2, 1, 994}} {
		g := complete(t, c.m)
		s := MaxReuse(c.slots, c.workers).Plan(g)
		if err := s.Validate(g); err != nil {
			t.Fatal(err)
		}
		r, err := s.Simulate(ExecOptions{Slots: c.slots, Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		if r.Ops() != int64(c.want) {
			t.Errorf("K%d at S=%d W=%d: %d ops, want %d", c.m, c.slots, c.workers, r.Ops(), c.want)
		}
	}
}

// TestMaxReuseBudgets: at every budget, Max-Reuse's schedules validate,
// plan identically twice, and Split(W) of a plan made for W cuts only
// between visits — the walks' boundaries — into segments of exactly the
// quotas the planner reset at.
func TestMaxReuseBudgets(t *testing.T) {
	for _, seed := range []int64{2, 9, 31} {
		g := randomPI(t, seed, 40, 160)
		for i := uint32(0); i < 40; i += 3 {
			if err := g.AddShard(i, i, 1); err != nil {
				t.Fatal(err)
			}
		}
		for _, slots := range []int{2, 3, 4, 8} {
			for _, workers := range []int{1, 2, 3, 5} {
				name := fmt.Sprintf("seed=%d slots=%d workers=%d", seed, slots, workers)
				h := MaxReuse(slots, workers)
				s := h.Plan(g)
				if err := s.Validate(g); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if again := h.Plan(g); !reflect.DeepEqual(s, again) {
					t.Fatalf("%s: two plans differ", name)
				}
				segs := s.Split(workers)
				want := quotas(len(stepSeq(s.Visits)), workers)
				if len(segs) != len(want) {
					t.Fatalf("%s: %d segments, want %d", name, len(segs), len(want))
				}
				var joined []Visit
				for k, seg := range segs {
					if n := len(stepSeq(seg.Visits)); n != want[k] {
						t.Errorf("%s: segment %d has %d steps, quota %d", name, k, n, want[k])
					}
					joined = append(joined, seg.Visits...)
				}
				if !reflect.DeepEqual(joined, s.Visits) {
					t.Errorf("%s: Split cut inside a visit", name)
				}
			}
		}
	}
}

func TestFromTupleCountsRoundTripToSchedule(t *testing.T) {
	// End-to-end shape: tuple counts -> PI -> all heuristics validate.
	counts := map[tuples.ShardID]int64{
		{I: 0, J: 1}: 3,
		{I: 1, J: 2}: 2,
		{I: 2, J: 0}: 4,
		{I: 3, J: 3}: 5,
	}
	g, err := FromTupleCounts(4, counts)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range AllHeuristics() {
		if err := h.Plan(g).Validate(g); err != nil {
			t.Errorf("%s: %v", h.Name(), err)
		}
	}
}
