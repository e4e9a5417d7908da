package knn

import (
	"fmt"
	"sync"

	"knnpc/internal/graph"
	"knnpc/internal/profile"
	"knnpc/internal/tuples"
)

// Scorer computes similarity scores for tuple shards, optionally in
// parallel. Scores land in a result slice indexed by tuple position, so
// the output is identical for any worker count — parallelism changes
// wall time, never results.
//
// A shard is sorted by (S, D), so sources come in runs. The scorer
// resolves and expands each source once per run (profile.Source) and
// scores the run's destinations against the expanded form; a score is
// still a pure function of the two profiles, bit for bit what
// Sim.Score returns for the pair. The result buffer and the per-run
// scratch belong to the scorer and are reused, so a Scorer must not be
// copied after first use (go vet's copylocks check flags a copy) or
// shared between goroutines.
type Scorer struct {
	_ noCopy

	// Sim is the similarity measure; must be non-nil.
	Sim profile.Similarity
	// Workers is the number of concurrent scoring goroutines; values
	// below 2 select serial execution.
	Workers int

	scores  []float64
	sources []*profile.Source // one per scoring goroutine
}

// noCopy makes go vet's copylocks check report a Scorer copied by
// value: two copies would share the scores array and the sources'
// scratch tables.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Lookup resolves a user id to its profile. Phase 4 passes a resolver
// backed by the two resident partitions.
type Lookup func(u uint32) (profile.Vector, error)

// Score computes sim(s, d) for every tuple. The lookup must resolve
// every endpoint. The returned slice is valid until the next call.
func (sc *Scorer) Score(ts []tuples.Tuple, lookup Lookup) ([]float64, error) {
	if sc.Sim == nil {
		return nil, fmt.Errorf("knn: scorer has no similarity measure")
	}
	if len(ts) == 0 {
		return nil, nil
	}
	workers := max(1, min(sc.Workers, len(ts)))
	for len(sc.sources) < workers {
		sc.sources = append(sc.sources, profile.NewSource(sc.Sim))
	}
	if cap(sc.scores) < len(ts) {
		sc.scores = make([]float64, len(ts))
	}
	scores := sc.scores[:len(ts)]
	if workers == 1 {
		if err := scoreRuns(sc.sources[0], ts, scores, lookup); err != nil {
			return nil, err
		}
		return scores, nil
	}

	// Chunks end on run boundaries, so no source is expanded twice and
	// every goroutine writes a disjoint range of scores.
	chunk := (len(ts) + workers - 1) / workers
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	lo := 0
	for w := 0; w < workers && lo < len(ts); w++ {
		hi := min(max(lo, (w+1)*chunk), len(ts))
		for hi > lo && hi < len(ts) && ts[hi].S == ts[hi-1].S {
			hi++
		}
		if hi == lo {
			continue
		}
		wg.Add(1)
		go func(src *profile.Source, lo, hi int) {
			defer wg.Done()
			if err := scoreRuns(src, ts[lo:hi], scores[lo:hi], lookup); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(sc.sources[w], lo, hi)
		lo = hi
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return scores, nil
}

// scoreRuns scores ts into scores (equal lengths), one source run at a
// time.
func scoreRuns(src *profile.Source, ts []tuples.Tuple, scores []float64, lookup Lookup) error {
	for i := 0; i < len(ts); {
		s := ts[i].S
		v, err := lookup(s)
		if err != nil {
			return fmt.Errorf("knn: profile of source %d: %w", s, err)
		}
		src.Reset(v)
		for ; i < len(ts) && ts[i].S == s; i++ {
			d, err := lookup(ts[i].D)
			if err != nil {
				return fmt.Errorf("knn: profile of destination %d: %w", ts[i].D, err)
			}
			scores[i] = src.Score(d)
		}
	}
	return nil
}

// Recall measures how well approx reproduces the exact KNN graph: the
// mean, over nodes with a non-empty exact neighbor list, of
// |approx(u) ∩ exact(u)| / |exact(u)| — the standard KNN-graph quality
// metric (Dong et al., WWW'11). Both graphs must share a node set.
func Recall(approx, exact *graph.KNN) float64 {
	var (
		total float64
		nodes int
	)
	for u := 0; u < exact.NumNodes(); u++ {
		want := exact.Neighbors(uint32(u))
		if len(want) == 0 {
			continue
		}
		got := approx.Neighbors(uint32(u))
		// Both lists are sorted: merge-count the intersection.
		i, j, hits := 0, 0, 0
		for i < len(got) && j < len(want) {
			switch {
			case got[i] == want[j]:
				hits++
				i++
				j++
			case got[i] < want[j]:
				i++
			default:
				j++
			}
		}
		total += float64(hits) / float64(len(want))
		nodes++
	}
	if nodes == 0 {
		return 0
	}
	return total / float64(nodes)
}
