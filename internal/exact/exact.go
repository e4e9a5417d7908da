// Package exact computes the exact K-nearest-neighbor graph — the
// ground truth against which the out-of-core engine and the NN-Descent
// baseline are measured. Every measure internal/profile ships scores 0
// for two profiles that share no item, so a user's exact top-K lies
// among the users sharing an item with it, filled at score 0 by
// smallest id; Compute finds those users through a postings index
// instead of scoring all n² pairs.
package exact

import (
	"fmt"
	"sync"

	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

// Options configures the computation.
type Options struct {
	// K is the neighbor count (required, ≥ 1).
	K int
	// Sim is the similarity measure (required).
	Sim profile.Similarity
	// Workers parallelizes over users; values below 2 run serially.
	Workers int
}

// Compute returns each user's K most similar users. Deterministic: ties
// break to smaller ids, identical to the engine's ordering. Under a
// measure profile.NewIndex accepts, each user is scored only against
// the users sharing an item with it, through a postings index over
// every profile (one per worker: a scan writes the index's scratch);
// under any other measure every ordered pair is scored, Θ(n²)
// evaluations. Both give the graph brute force gives.
func Compute(store *profile.Store, opts Options) (*graph.KNN, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("exact: K must be positive, got %d", opts.K)
	}
	if opts.Sim == nil {
		return nil, fmt.Errorf("exact: similarity measure is required")
	}
	n := store.NumUsers()
	g, err := graph.NewKNN(n, opts.K)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return g, nil
	}
	vecs := store.Vectors()

	// rows fills the rows of users first, first+step, … into g; Set on
	// distinct rows may run concurrently.
	rows := func(first, step int) error {
		ix, indexed := profile.NewIndex(opts.Sim)
		if indexed {
			err := ix.Build(n, func(v uint32) (profile.Vector, bool, error) { return vecs[v], true, nil })
			if err != nil {
				return err
			}
		}
		for u := first; u < n; u += step {
			tk, err := knn.NewTopK(opts.K)
			if err != nil {
				return err
			}
			self := func(v uint32) bool { return v == uint32(u) }
			if indexed {
				users, scores := ix.Scan(vecs[u])
				tk.PushOverlap(users, scores, n, self)
			} else {
				for v := range vecs {
					if !self(uint32(v)) {
						tk.Push(uint32(v), opts.Sim.Score(vecs[u], vecs[v]))
					}
				}
			}
			if err := g.Set(uint32(u), tk.IDs()); err != nil {
				return fmt.Errorf("exact: set neighbors of %d: %w", u, err)
			}
		}
		return nil
	}

	workers := min(max(opts.Workers, 1), n) // each builds its own index
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = rows(w, workers)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}
