// Recommender: the paper's motivating workload. Build a KNN graph over
// users with movie-style ratings, then recommend to each user the items
// its nearest neighbors rated highly but the user has not seen —
// classic user-based collaborative filtering on top of the out-of-core
// KNN engine.
//
// Run with:
//
//	go run ./examples/recommender
//
// The engine runs on disk with pipelined phase 4 by default (partition
// loads prefetched while the current pair is scored); compare against
// the paper's serial execution with:
//
//	go run ./examples/recommender -prefetch 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"knnpc"
	"knnpc/internal/dataset"
)

const (
	users        = 1000
	items        = 4000
	itemsPerUser = 30
	communities  = 10
	k            = 8
)

func main() {
	prefetch := flag.Int("prefetch", 2, "async partition-load lookahead (0 = the paper's serial phase 4)")
	flag.Parse()
	if err := run(os.Stdout, *prefetch); err != nil {
		log.Fatal(err)
	}
}

// run builds the graph with the given prefetch depth and writes the
// run summary and the recommendations to out.
func run(out io.Writer, prefetch int) error {
	vecs, clusters, err := dataset.RatingsProfiles(users, items, itemsPerUser, communities, 2024)
	if err != nil {
		return err
	}
	profiles := make([][]knnpc.Item, users)
	for u, v := range vecs {
		for _, e := range v.Entries() {
			profiles[u] = append(profiles[u], knnpc.Item{ID: e.Item, Weight: e.Weight})
		}
	}

	sys, err := knnpc.New(profiles, knnpc.Config{
		K:             k,
		Partitions:    8,
		Workers:       4,
		PrefetchDepth: prefetch,
		OnDisk:        true, // exercise the real out-of-core path
		Seed:          7,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	reports, err := sys.Run(context.Background(), 12)
	if err != nil {
		return err
	}
	last := reports[len(reports)-1]
	mode := "serial phase 4"
	if prefetch > 0 {
		mode = fmt.Sprintf("pipelined phase 4 (%d of %d loads prefetched)", last.PrefetchedLoads, last.LoadUnloadOps/2)
	}
	fmt.Fprintf(out, "ran %d iterations, %s (last changed %d edges, %d load/unload ops per iter)\n\n",
		len(reports), mode, last.EdgeChanges, last.LoadUnloadOps)

	// Recommend for a few users: aggregate neighbors' ratings of items
	// the user has not rated.
	for _, u := range []uint32{0, 1, 2} {
		recs := recommend(sys, profiles, u, 5)
		fmt.Fprintf(out, "user %4d (community %d): top recommendations %v\n", u, clusters[u], recs)
	}

	// Sanity metric: how often do recommendations stay within the
	// user's taste community? (Items 400c..400c+399 belong to
	// community c by construction of the generator.)
	inCommunity, total := 0, 0
	for u := uint32(0); u < users; u++ {
		for _, item := range recommend(sys, profiles, u, 5) {
			total++
			if int(item)/(items/communities) == clusters[u] {
				inCommunity++
			}
		}
	}
	_, err = fmt.Fprintf(out, "\n%.1f%% of recommendations fall inside the user's own taste community\n",
		100*float64(inCommunity)/float64(total))
	return err
}

// recommend returns the top-n unseen items, ranked by the summed
// ratings of u's KNN neighbors.
func recommend(sys *knnpc.System, profiles [][]knnpc.Item, u uint32, n int) []uint32 {
	seen := make(map[uint32]bool, len(profiles[u]))
	for _, it := range profiles[u] {
		seen[it.ID] = true
	}
	scores := make(map[uint32]float32)
	for _, nbr := range sys.Neighbors(u) {
		for _, it := range profiles[nbr] {
			if !seen[it.ID] {
				scores[it.ID] += it.Weight
			}
		}
	}
	type rec struct {
		item  uint32
		score float32
	}
	ranked := make([]rec, 0, len(scores))
	for item, score := range scores {
		ranked = append(ranked, rec{item, score})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].item < ranked[j].item
	})
	if len(ranked) > n {
		ranked = ranked[:n]
	}
	out := make([]uint32, len(ranked))
	for i, r := range ranked {
		out[i] = r.item
	}
	return out
}
