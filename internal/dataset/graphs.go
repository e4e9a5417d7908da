// Package dataset generates the synthetic inputs of the reproduction:
// directed graphs that stand in for the six SNAP datasets of the paper's
// Table 1 (the module is offline, so the real downloads are replaced by
// generators matching their exact node/edge counts and degree shape) and
// clustered user-profile collections for the KNN workloads.
//
// All generators are deterministic for a given seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"knnpc/internal/graph"
)

// GraphSpec describes a synthetic directed graph: an exact node and edge
// count plus a degree-skew exponent. Alpha 0 yields near-uniform degrees
// (Erdős–Rényi-like); larger Alpha concentrates edges on a few hubs
// (the heavy-tailed shape of social, collaboration and e-mail graphs).
type GraphSpec struct {
	Name  string
	Nodes int
	Edges int
	// Alpha is the power-law skew of the expected-degree sequence
	// w_i ∝ rank^(-Alpha). Typical heavy-tailed graphs use 0.6–0.9.
	Alpha float64
	Seed  int64
}

// Generate samples a simple directed graph (no self-loops, no duplicate
// arcs) with exactly the spec'd node and edge counts, using a Chung-Lu
// style weighted endpoint sampler. Node weights are shuffled so node id
// carries no degree information (the Table 1 heuristics must not get
// accidental hints from id order).
func (s GraphSpec) Generate() (*graph.Digraph, error) {
	if s.Nodes < 2 {
		return nil, fmt.Errorf("dataset: %s: need at least 2 nodes, have %d", s.Name, s.Nodes)
	}
	maxEdges := s.Nodes * (s.Nodes - 1)
	if s.Edges < 0 || s.Edges > maxEdges {
		return nil, fmt.Errorf("dataset: %s: %d edges impossible for %d nodes (max %d)",
			s.Name, s.Edges, s.Nodes, maxEdges)
	}
	if s.Alpha < 0 {
		return nil, fmt.Errorf("dataset: %s: negative alpha %g", s.Name, s.Alpha)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	sampler := newWeightedSampler(s.Nodes, s.Alpha, rng)

	g := graph.NewDigraph(s.Nodes)
	seen := make(map[uint64]struct{}, s.Edges)
	// Rejection-sample distinct non-loop edges. The attempt bound is
	// generous: real rejection rates are tiny because m << n².
	maxAttempts := 100*s.Edges + 1000
	for attempts := 0; g.NumEdges() < s.Edges; attempts++ {
		if attempts > maxAttempts {
			return nil, fmt.Errorf("dataset: %s: sampler stalled after %d attempts at %d/%d edges (alpha too skewed for density?)",
				s.Name, attempts, g.NumEdges(), s.Edges)
		}
		src := sampler.draw(rng)
		dst := sampler.draw(rng)
		if src == dst {
			continue
		}
		key := uint64(src)<<32 | uint64(dst)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		g.AddEdge(src, dst)
	}
	g.SortAdjacency()
	return g, nil
}

// weightedSampler draws node ids with probability proportional to a
// (shuffled) power-law weight sequence, via binary search over the
// cumulative weights.
type weightedSampler struct {
	cum []float64
}

func newWeightedSampler(n int, alpha float64, rng *rand.Rand) *weightedSampler {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -alpha)
	}
	rng.Shuffle(n, func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })
	cum := make([]float64, n)
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	return &weightedSampler{cum: cum}
}

func (ws *weightedSampler) draw(rng *rand.Rand) uint32 {
	target := rng.Float64() * ws.cum[len(ws.cum)-1]
	idx := sort.SearchFloat64s(ws.cum, target)
	if idx >= len(ws.cum) {
		idx = len(ws.cum) - 1
	}
	return uint32(idx)
}

// UniformRandom generates a simple directed graph with exactly m edges
// whose endpoints are uniform — the Erdős–Rényi G(n,m) baseline.
func UniformRandom(n, m int, seed int64) (*graph.Digraph, error) {
	return GraphSpec{Name: "uniform", Nodes: n, Edges: m, Alpha: 0, Seed: seed}.Generate()
}
