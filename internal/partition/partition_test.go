package partition

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"knnpc/internal/dataset"
	"knnpc/internal/graph"
)

func ring(n int) *graph.Digraph {
	g := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		g.AddEdge(uint32(u), uint32((u+1)%n))
	}
	return g
}

func TestNewAssignmentValidation(t *testing.T) {
	if _, err := NewAssignment([]uint32{0, 1}, 0); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := NewAssignment([]uint32{0, 5}, 2); err == nil {
		t.Error("assignment beyond m should fail")
	}
	a, err := NewAssignment([]uint32{1, 0, 1}, 2)
	if err != nil {
		t.Fatalf("NewAssignment: %v", err)
	}
	if a.NumPartitions() != 2 || a.NumNodes() != 3 {
		t.Errorf("m=%d n=%d", a.NumPartitions(), a.NumNodes())
	}
	if a.Of(0) != 1 || a.Of(1) != 0 {
		t.Error("Of returned wrong partitions")
	}
	if !reflect.DeepEqual(a.Members(1), []uint32{0, 2}) {
		t.Errorf("Members(1) = %v", a.Members(1))
	}
	if !reflect.DeepEqual(a.Sizes(), []int{1, 2}) {
		t.Errorf("Sizes = %v", a.Sizes())
	}
}

func TestPartitionersArgValidation(t *testing.T) {
	g := ring(4)
	for _, p := range []Partitioner{Range{}, Hash{}, Greedy{}} {
		if _, err := p.Partition(g, 0); err == nil {
			t.Errorf("%s: m=0 should fail", p.Name())
		}
		if _, err := p.Partition(g, 9); err == nil {
			t.Errorf("%s: m>n should fail", p.Name())
		}
		if _, err := p.Partition(graph.NewDigraph(0), 1); err == nil {
			t.Errorf("%s: empty graph should fail", p.Name())
		}
	}
}

// checkCover verifies that an assignment is an exact cover: every node
// in exactly one partition.
func checkCover(t *testing.T, a *Assignment, n int) {
	t.Helper()
	seen := make([]bool, n)
	for p := 0; p < a.NumPartitions(); p++ {
		for _, u := range a.Members(uint32(p)) {
			if seen[u] {
				t.Fatalf("node %d in more than one partition", u)
			}
			seen[u] = true
			if a.Of(u) != uint32(p) {
				t.Fatalf("Of(%d)=%d but member of %d", u, a.Of(u), p)
			}
		}
	}
	for u, ok := range seen {
		if !ok {
			t.Fatalf("node %d unassigned", u)
		}
	}
}

func TestPartitionersProduceExactCoverProperty(t *testing.T) {
	for _, p := range []Partitioner{Range{}, Hash{}, Greedy{}} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				n := 2 + r.Intn(60)
				m := 1 + r.Intn(n)
				g, err := dataset.UniformRandom(n, min(3*n, n*(n-1)/2), seed)
				if err != nil {
					return false
				}
				a, err := p.Partition(g, m)
				if err != nil {
					return false
				}
				seen := make([]bool, n)
				count := 0
				for q := 0; q < m; q++ {
					members := a.Members(uint32(q))
					for i, u := range members {
						// Members ascend, so a node's ordinal is its rank.
						if seen[u] || a.Ordinal(u) != i || (i > 0 && members[i-1] >= u) {
							return false
						}
						seen[u] = true
						count++
					}
				}
				return count == n
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPartitionersBalance(t *testing.T) {
	g, err := dataset.UniformRandom(100, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Partitioner{Range{}, Hash{}, Greedy{}} {
		a, err := p.Partition(g, 7)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		checkCover(t, a, 100)
		per := (100 + 6) / 7 // ceil
		for q, size := range a.Sizes() {
			if size > per {
				t.Errorf("%s: partition %d holds %d nodes, cap %d", p.Name(), q, size, per)
			}
		}
	}
}

func TestObjectiveHandComputed(t *testing.T) {
	// 0→1, 0→2, 3→1. Partitions {0,1} and {2,3}.
	g := graph.NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(3, 1)
	a, err := NewAssignment([]uint32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// P0 {0,1}: in-edges of members: (0,1),(3,1) -> sources {0,3} = 2.
	//           out-edges of members: (0,1),(0,2) -> dests {1,2} = 2.
	// P1 {2,3}: in-edges: (0,2) -> sources {0} = 1.
	//           out-edges: (3,1) -> dests {1} = 1.
	// Total = 6.
	if got := Objective(g, a); got != 6 {
		t.Errorf("Objective = %d, want 6", got)
	}
}

func TestGreedyBeatsHashOnClusteredGraph(t *testing.T) {
	// Two dense communities joined by one edge: greedy should exploit
	// the structure that hash destroys.
	n := 40
	g := graph.NewDigraph(n)
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 2; c++ {
		base := c * n / 2
		for i := 0; i < 150; i++ {
			u := uint32(base + rng.Intn(n/2))
			v := uint32(base + rng.Intn(n/2))
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	g.AddEdge(0, uint32(n/2))

	greedy, err := (Greedy{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := (Hash{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	go1, go2 := Objective(g, greedy), Objective(g, hashed)
	if go1 >= go2 {
		t.Errorf("greedy objective %d should beat hash %d on clustered graph", go1, go2)
	}
}

func TestBuildPartitionData(t *testing.T) {
	// 0→1, 0→2, 2→0, 3→1; partitions {0,1} and {2,3}.
	g := graph.NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 1)
	a, err := NewAssignment([]uint32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	parts := Build(g, a)
	if len(parts) != 2 {
		t.Fatalf("got %d partitions", len(parts))
	}

	p0 := parts[0]
	if !reflect.DeepEqual(p0.Members, []uint32{0, 1}) {
		t.Errorf("P0 members = %v", p0.Members)
	}
	// In-edges with dst ∈ {0,1}: (2,0), (0,1), (3,1) sorted by bridge dst then src.
	wantIn := []graph.Edge{{Src: 2, Dst: 0}, {Src: 0, Dst: 1}, {Src: 3, Dst: 1}}
	if !reflect.DeepEqual(p0.InEdges, wantIn) {
		t.Errorf("P0 in-edges = %v, want %v", p0.InEdges, wantIn)
	}
	// Out-edges with src ∈ {0,1}: (0,1), (0,2) sorted by bridge src then dst.
	wantOut := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}
	if !reflect.DeepEqual(p0.OutEdges, wantOut) {
		t.Errorf("P0 out-edges = %v, want %v", p0.OutEdges, wantOut)
	}

	p1 := parts[1]
	wantIn = []graph.Edge{{Src: 0, Dst: 2}}
	wantOut = []graph.Edge{{Src: 2, Dst: 0}, {Src: 3, Dst: 1}}
	if !reflect.DeepEqual(p1.InEdges, wantIn) || !reflect.DeepEqual(p1.OutEdges, wantOut) {
		t.Errorf("P1 edges = in %v out %v", p1.InEdges, p1.OutEdges)
	}
}

func TestBuildEdgeListsSortedByBridgeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(40)
		g, err := dataset.UniformRandom(n, 3*n, seed)
		if err != nil {
			return false
		}
		// Partition validly refuses m > n; keep the draw inside the
		// legal range so the property only sees real failures.
		m := 2 + r.Intn(4)
		if m > n {
			m = n
		}
		a, err := (Hash{}).Partition(g, m)
		if err != nil {
			return false
		}
		for _, p := range Build(g, a) {
			if !sort.SliceIsSorted(p.InEdges, func(i, j int) bool {
				a, b := p.InEdges[i], p.InEdges[j]
				return a.Dst < b.Dst || (a.Dst == b.Dst && a.Src < b.Src)
			}) {
				return false
			}
			if !sort.SliceIsSorted(p.OutEdges, func(i, j int) bool {
				a, b := p.OutEdges[i], p.OutEdges[j]
				return a.Src < b.Src || (a.Src == b.Src && a.Dst < b.Dst)
			}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildConservesEdges(t *testing.T) {
	g, err := dataset.UniformRandom(50, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (Greedy{}).Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	parts := Build(g, a)
	totalIn, totalOut := 0, 0
	for _, p := range parts {
		totalIn += len(p.InEdges)
		totalOut += len(p.OutEdges)
	}
	if totalIn != g.NumEdges() || totalOut != g.NumEdges() {
		t.Errorf("in=%d out=%d, want both %d", totalIn, totalOut, g.NumEdges())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"range", "hash", "greedy"} {
		p, ok := ByName(name)
		if !ok || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := ByName("metis"); ok {
		t.Error("unknown partitioner should report false")
	}
}
