package pigraph

import (
	"testing"
	"testing/quick"

	"knnpc/internal/dataset"
	"knnpc/internal/tuples"
)

func TestExtensionHeuristicsCoverEveryEdgeProperty(t *testing.T) {
	for _, h := range []Heuristic{EdgeOrder{}, CostAware{}} {
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

func TestCostAwareCompetitiveOnWeightedPI(t *testing.T) {
	// On a PI graph with very skewed shard weights the cost-aware order
	// must stay competitive with the degree heuristics in ops while
	// front-loading heavy work.
	g := New(12)
	// A heavy clique core with light pendant edges.
	for i := uint32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddShard(i, j, 1000)
		}
	}
	for i := uint32(4); i < 12; i++ {
		g.AddShard(i%4, i, 1)
	}
	ca := (CostAware{}).Plan(g)
	if err := ca.Validate(g); err != nil {
		t.Fatal(err)
	}
	caOps := simulate(t, ca).Ops()
	hlOps := simulate(t, DegreeHighLow().Plan(g)).Ops()
	if caOps > 2*hlOps {
		t.Errorf("Cost-Aware ops %d wildly worse than High-Low %d", caOps, hlOps)
	}
	// The first visit should start in the heavy core (partitions 0-3).
	if first := ca.Visits[0].Primary; first > 3 {
		t.Errorf("Cost-Aware should start at the heavy core, started at %d", first)
	}
}

func TestCostAwareHandlesSelfOnlyWeight(t *testing.T) {
	g := New(3)
	g.AddShard(1, 1, 50)
	s := (CostAware{}).Plan(g)
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if r := simulate(t, s); r.Selfs != 1 || r.Loads != 1 {
		t.Errorf("self-only result = %+v", r)
	}
}

func TestLowerBound(t *testing.T) {
	g := New(5)
	g.AddShard(0, 1, 1)
	g.AddShard(2, 2, 3) // self work also counts as active
	if got := g.LowerBound(); got != 6 {
		t.Errorf("LowerBound = %d, want 6 (three active partitions)", got)
	}
	// Every heuristic must respect the bound.
	big := randomPI(t, 5, 60, 300)
	lb := big.LowerBound()
	for _, h := range AllHeuristics() {
		if ops := simulate(t, h.Plan(big)).Ops(); ops < lb {
			t.Errorf("%s: ops %d below lower bound %d", h.Name(), ops, lb)
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
