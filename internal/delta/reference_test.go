package delta

import (
	"fmt"
	"sort"

	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

// This file keeps the map-based inserter and the one-user strip as they
// were before Insert scored through a profile.Source and RemoveRun
// stripped a run in one scan: the differential tests hold the current
// code to their output, bit for bit.

// refInsert is Insert with Go-map score cache, pool and seen sets, and
// cfg.Sim.Score (a two-way merge) per pair.
func refInsert(g *graph.KNN, profiles func(uint32) (profile.Vector, error), cfg Config, u uint32, vec profile.Vector) (Result, error) {
	var res Result
	if cfg.K < 1 {
		return res, fmt.Errorf("delta: K must be positive, got %d", cfg.K)
	}
	if cfg.Sim == nil {
		return res, fmt.Errorf("delta: similarity measure is required")
	}
	n := g.NumNodes()
	if int(u) >= n {
		return res, fmt.Errorf("delta: user %d outside grown graph [0,%d)", u, n)
	}
	skip := func(v uint32) bool {
		return v == u || (cfg.Dead != nil && cfg.Dead(v))
	}

	// Score cache: each candidate is evaluated against vec once.
	scores := make(map[uint32]float64)
	score := func(v uint32) (float64, error) {
		if s, ok := scores[v]; ok {
			return s, nil
		}
		pv, err := profiles(v)
		if err != nil {
			return 0, fmt.Errorf("delta: profile of candidate %d: %w", v, err)
		}
		s := cfg.Sim.Score(vec, pv)
		res.SimEvals++
		scores[v] = s
		return s, nil
	}

	// Stage 1: greedy descents from id-spread seeds.
	stride := n / seeds
	if stride < 1 {
		stride = 1
	}
	var optima []uint32
	seen := make(map[uint32]bool)
	for i := 0; i < seeds; i++ {
		cur := uint32((int(u) + 1 + i*stride) % n)
		ok := false
		for probes := 0; probes < n; probes++ {
			if !skip(cur) {
				ok = true
				break
			}
			cur = (cur + 1) % uint32(n)
		}
		if !ok {
			break // every other user is dead; nothing to link to
		}
		curScore, err := score(cur)
		if err != nil {
			return res, err
		}
		for hop := 0; hop < maxHops; hop++ {
			best, bestScore, found := cur, curScore, false
			for _, v := range g.Neighbors(cur) {
				if skip(v) {
					continue
				}
				sv, err := score(v)
				if err != nil {
					return res, err
				}
				if knn.Better(knn.Scored{ID: v, Score: sv}, knn.Scored{ID: best, Score: bestScore}) {
					best, bestScore, found = v, sv, true
				}
			}
			if !found {
				break
			}
			cur, curScore = best, bestScore
		}
		if !seen[cur] {
			seen[cur] = true
			optima = append(optima, cur)
		}
	}

	// Stage 2: two-hop candidate pool around the optima.
	pool := make(map[uint32]bool)
	admit := func(v uint32) {
		if !skip(v) {
			pool[v] = true
		}
	}
	for _, b := range optima {
		admit(b)
		for _, v := range g.Neighbors(b) {
			admit(v)
			for _, w := range g.Neighbors(v) {
				admit(w)
			}
		}
	}
	cands := make([]uint32, 0, len(pool))
	for v := range pool {
		cands = append(cands, v)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	res.Candidates = len(cands)

	// Stage 3a: u's top-K of the pool.
	tk, err := knn.NewTopK(cfg.K)
	if err != nil {
		return res, err
	}
	for _, c := range cands {
		sc, err := score(c)
		if err != nil {
			return res, err
		}
		tk.Push(c, sc)
	}
	res.Neighbors = tk.IDs()
	sort.Slice(res.Neighbors, func(i, j int) bool { return res.Neighbors[i] < res.Neighbors[j] })
	if err := g.Set(u, res.Neighbors); err != nil {
		return res, fmt.Errorf("delta: set neighbors of %d: %w", u, err)
	}

	// Stage 3b: bounded reverse refine — each chosen neighbor
	// reconsiders its list with u as a candidate.
	for _, v := range res.Neighbors {
		changed, err := refRefineWith(g, profiles, cfg, &res, v, u, scores[v])
		if err != nil {
			return res, err
		}
		if changed {
			res.Touched = append(res.Touched, v)
		}
	}
	return res, nil
}

// refRefineWith rebuilds v's neighbor list from its current neighbors
// plus the candidate c (scored sim(v,c) = cScore), reporting whether
// the list changed.
func refRefineWith(g *graph.KNN, profiles func(uint32) (profile.Vector, error), cfg Config, res *Result, v, c uint32, cScore float64) (bool, error) {
	cur := g.Neighbors(v)
	vvec, err := profiles(v)
	if err != nil {
		return false, fmt.Errorf("delta: profile of refined user %d: %w", v, err)
	}
	tk, err := knn.NewTopK(cfg.K)
	if err != nil {
		return false, err
	}
	for _, w := range cur {
		if w == c {
			return false, nil // already linked; list unchanged
		}
		wvec, err := profiles(w)
		if err != nil {
			return false, fmt.Errorf("delta: profile of neighbor %d: %w", w, err)
		}
		tk.Push(w, cfg.Sim.Score(vvec, wvec))
		res.SimEvals++
	}
	tk.Push(c, cScore)
	next := tk.IDs()
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	if refEqualIDs(next, cur) {
		return false, nil
	}
	if err := g.Set(v, next); err != nil {
		return false, fmt.Errorf("delta: refine user %d: %w", v, err)
	}
	return true, nil
}

func refEqualIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refRemove strips one user with a binary search of every list.
func refRemove(g *graph.KNN, u uint32) ([]uint32, error) {
	var touched []uint32
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if uint32(v) == u {
			continue
		}
		nbrs := g.Neighbors(uint32(v))
		i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= u })
		if i >= len(nbrs) || nbrs[i] != u {
			continue
		}
		next := make([]uint32, 0, len(nbrs)-1)
		next = append(next, nbrs[:i]...)
		next = append(next, nbrs[i+1:]...)
		if err := g.Set(uint32(v), next); err != nil {
			return touched, fmt.Errorf("delta: strip %d from %d: %w", u, v, err)
		}
		touched = append(touched, uint32(v))
	}
	if len(g.Neighbors(u)) > 0 {
		if err := g.Set(u, nil); err != nil {
			return touched, fmt.Errorf("delta: clear %d: %w", u, err)
		}
	}
	return touched, nil
}
