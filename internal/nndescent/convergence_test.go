package nndescent_test

import (
	"context"
	"testing"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/exact"
	"knnpc/internal/knn"
	"knnpc/internal/nndescent"
	"knnpc/internal/profile"
)

// convergencePoint is one engine iteration of a quality trajectory.
type convergencePoint struct {
	iteration int
	// recall is measured against the brute-force exact KNN graph.
	recall float64
	// edgeChanges is the engine's convergence signal at this step.
	edgeChanges int
	// scoredTuples counts similarity evaluations this iteration.
	scoredTuples int64
}

// convergenceResult compares the out-of-core engine's quality
// trajectory with the NN-Descent baseline on the same workload.
type convergenceResult struct {
	engine            []convergencePoint
	nnDescentRecall   float64
	nnDescentSimEvals int64
	// bruteForceEvals is n(n-1)/2, the exact computation's cost.
	bruteForceEvals int64
}

// convergence runs the engine for up to iterations iterations,
// measuring recall against brute force after every one, and runs
// NN-Descent once on the same data for comparison. It quantifies the
// trade the paper makes: the out-of-core iteration converges more
// slowly than the in-memory baseline (no reverse neighbors) but never
// holds more than two partitions of profile state in memory.
// exploration adds random candidates per user per iteration (0 = the
// paper's pure rule). Under -v the trajectory is logged as a table.
func convergence(t *testing.T, users, k, partitions, iterations, exploration int, seed int64) convergenceResult {
	t.Helper()
	vecs, _, err := dataset.RatingsProfiles(users, 4*users, 25, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	store := profile.NewStoreFromVectors(vecs)
	truth, err := exact.Compute(store, exact.Options{K: k, Sim: profile.Cosine{}, Workers: 4})
	if err != nil {
		t.Fatalf("ground truth: %v", err)
	}
	n := int64(users)
	res := convergenceResult{bruteForceEvals: n * (n - 1) / 2}

	eng, err := core.New(store, core.Options{
		K:                k,
		NumPartitions:    partitions,
		RandomCandidates: exploration,
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < iterations; i++ {
		st, err := eng.Iterate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res.engine = append(res.engine, convergencePoint{
			iteration:    i,
			recall:       knn.Recall(eng.Graph(), truth),
			edgeChanges:  st.EdgeChanges,
			scoredTuples: st.TuplesScored,
		})
		if st.EdgeChanges == 0 {
			break
		}
	}

	approx, stats, err := nndescent.Run(store, nndescent.Options{
		K:    k,
		Sim:  profile.Cosine{},
		Rho:  0.5, // the standard sampling rate of Dong et al.
		Seed: seed,
	})
	if err != nil {
		t.Fatalf("NN-Descent baseline: %v", err)
	}
	res.nnDescentRecall = knn.Recall(approx, truth)
	res.nnDescentSimEvals = stats.SimEvals

	t.Logf("| Iteration | Recall | Edge changes | Tuples scored |")
	for _, p := range res.engine {
		t.Logf("| %d | %.4f | %d | %d |", p.iteration, p.recall, p.edgeChanges, p.scoredTuples)
	}
	t.Logf("NN-Descent baseline: recall %.4f with %d similarity evaluations (brute force: %d)",
		res.nnDescentRecall, res.nnDescentSimEvals, res.bruteForceEvals)
	return res
}

func TestConvergenceTrajectory(t *testing.T) {
	res := convergence(t, 150, 5, 5, 8, 0, 11)
	if len(res.engine) == 0 {
		t.Fatal("no trajectory points")
	}
	first, last := res.engine[0], res.engine[len(res.engine)-1]
	if last.recall < first.recall {
		t.Errorf("recall regressed: %.3f -> %.3f", first.recall, last.recall)
	}
	if last.edgeChanges > first.edgeChanges {
		t.Errorf("edge churn grew: %d -> %d", first.edgeChanges, last.edgeChanges)
	}
	if res.nnDescentRecall < 0.5 {
		t.Errorf("NN-Descent baseline recall %.3f suspiciously low", res.nnDescentRecall)
	}
	if res.nnDescentSimEvals >= res.bruteForceEvals {
		t.Errorf("baseline used %d evals, brute force needs %d", res.nnDescentSimEvals, res.bruteForceEvals)
	}
}

func TestConvergenceWithExploration(t *testing.T) {
	// Exploration must not break the trajectory; it typically speeds
	// discovery on clustered data.
	res := convergence(t, 120, 4, 4, 6, 2, 13)
	if len(res.engine) == 0 || res.engine[len(res.engine)-1].recall <= 0 {
		t.Error("exploration trajectory empty or zero recall")
	}
}
