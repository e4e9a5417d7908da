package delta

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

// Config configures an insertion.
type Config struct {
	// K is the neighbor bound (required, ≥ 1; must not exceed the
	// graph's bound).
	K int
	// Sim scores candidate pairs (required). It must be symmetric —
	// the refine pass reuses sim(u,v) as sim(v,u), which holds for
	// every measure internal/profile ships.
	Sim profile.Similarity
	// Dead reports tombstoned users, which are never candidates and
	// never refined. nil means none.
	Dead func(uint32) bool
	// Index, when set, covers the inserted profile's items and holds
	// every live user of the graph with the profile the profiles lookup
	// returns for it (the inserted user may be among them, with the
	// profile being inserted), scored under Sim. Insert then scores only
	// the users that share an item with the inserted one. nil scores
	// every live user.
	Index *profile.Index
	// In, when set, records every edge Insert writes: the inserted user
	// goes into the in-list of each user in its new row, and each
	// refined user that now lists it into the inserted user's. So in-
	// lists that name a superset of the rows listing each user before
	// the insertion still do after it.
	In *InLists
}

// Result reports what one insertion did.
type Result struct {
	// Neighbors is the inserted user's top-K, sorted by id (the
	// graph's storage order). It is the graph's row, to read only.
	Neighbors []uint32
	// Touched lists existing users whose neighbor lists the refine
	// pass changed.
	Touched []uint32
	// Candidates is the number of users scored against the inserted
	// one: those sharing an item with it, or every live user without
	// an index.
	Candidates int
	// SimEvals counts similarity evaluations, one per scored pair: the
	// candidates, plus the neighbors of each refined row that holds no
	// scores. A row that holds them is ranked by comparing, at no
	// evaluation. (Compare against the ~n·K·K of a full iteration.)
	SimEvals int
}

// Insert computes and installs user u's neighborhood in g. u must
// already be a node of g (grown beforehand) with profile vec; its
// previous out-edges, if any, are replaced. The two stages:
//
//  1. u's list is the exact top-K of the live users. With cfg.Index it
//     is taken from the users that share an item with vec, each scored
//     by the index, and the K smallest live ids among the rest at
//     score 0 — every other user scores 0, and ties go to the smaller
//     id, so no other user can make the list; a list with fewer than K
//     positive scores is filled that way, exact.Compute's tie rule.
//     Without an index every live user is scored in turn. Both give
//     the same list.
//  2. Refine: each chosen neighbor v reconsiders its own list with u
//     as a candidate (one bounded NN-descent step), so edges point
//     both ways where similarity warrants. v's list is ranked from the
//     scores its row holds; only a row holding none (a random G(0), a
//     warm start) is rescored from the profiles.
//
// Everything is deterministic for a fixed (g, profiles, cfg, u, vec):
// ties break by id through knn.Better, and neighbors are refined in
// ascending id order. Every row Insert writes holds its scores: u's
// are bit for bit what cfg.Sim.Score(vec, ·) returns, and a refined
// row keeps the scores it held and adds u's. So when every score g
// holds is the similarity of the two profiles the lookup returns,
// Insert leaves it so; a row whose stored scores are stale refines as
// if they were true.
func Insert(g *graph.KNN, profiles func(uint32) (profile.Vector, error), cfg Config, u uint32, vec profile.Vector) (Result, error) {
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

	// Stage 1: u's exact top-K.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	tk, err := sc.topK(cfg.K)
	if err != nil {
		return res, err
	}
	if cfg.Index != nil {
		users, scores := cfg.Index.Scan(vec)
		res.Candidates = tk.PushOverlap(users, scores, n, skip)
	} else {
		src := sc.source(cfg.Sim)
		src.Reset(vec)
		for v := uint32(0); int(v) < n; v++ {
			if skip(v) {
				continue
			}
			pv, err := profiles(v)
			if err != nil {
				return res, fmt.Errorf("delta: profile of candidate %d: %w", v, err)
			}
			tk.Push(v, src.Score(pv))
			res.Candidates++
		}
	}
	res.SimEvals = res.Candidates

	sc.ids, sc.scores = tk.AppendRow(sc.ids[:0], sc.scores[:0])
	if err := g.SetScored(u, sc.ids, sc.scores); err != nil {
		return res, fmt.Errorf("delta: set neighbors of %d: %w", u, err)
	}
	res.Neighbors = g.Neighbors(u)

	// Stage 2: bounded reverse refine — each chosen neighbor
	// reconsiders its list with u as a candidate, in ascending id order.
	for i, v := range res.Neighbors {
		changed, err := refineWith(g, profiles, cfg, sc, &res, v, u, g.Scores(u)[i])
		if err != nil {
			return res, err
		}
		if changed {
			res.Touched = append(res.Touched, v)
		}
	}
	if cfg.In != nil {
		for _, v := range res.Neighbors {
			cfg.In.Add(v, u)
		}
		for _, v := range res.Touched {
			cfg.In.Add(u, v)
		}
	}
	return res, nil
}

// refineWith rebuilds v's neighbor list from its current neighbors
// plus the candidate c (scored sim(v,c) = cScore), reporting whether
// the list changed. A row that holds its scores is ranked from them and
// costs no evaluation; one that holds none has v's profile expanded into
// the scratch's Source once and its neighbors scored through it. Either
// way the new row is stored with its scores.
func refineWith(g *graph.KNN, profiles func(uint32) (profile.Vector, error), cfg Config, sc *scratch, res *Result, v, c uint32, cScore float64) (bool, error) {
	cur := g.Neighbors(v)
	if _, linked := slices.BinarySearch(cur, c); linked {
		return false, nil // list unchanged
	}
	tk, err := sc.topK(cfg.K)
	if err != nil {
		return false, err
	}
	if scores := g.Scores(v); scores != nil {
		for i, w := range cur {
			tk.Push(w, scores[i])
		}
	} else {
		vvec, err := profiles(v)
		if err != nil {
			return false, fmt.Errorf("delta: profile of refined user %d: %w", v, err)
		}
		src := sc.source(cfg.Sim)
		src.Reset(vvec)
		for _, w := range cur {
			wvec, err := profiles(w)
			if err != nil {
				return false, fmt.Errorf("delta: profile of neighbor %d: %w", w, err)
			}
			tk.Push(w, src.Score(wvec))
			res.SimEvals++
		}
	}
	tk.Push(c, cScore)
	sc.ids, sc.scores = tk.AppendRow(sc.ids[:0], sc.scores[:0])
	if slices.Equal(sc.ids, cur) {
		return false, nil
	}
	if err := g.SetScored(v, sc.ids, sc.scores); err != nil {
		return false, fmt.Errorf("delta: refine user %d: %w", v, err)
	}
	return true, nil
}

// scratch is Insert's reusable working memory, pooled so the inserts
// and refines of a batch share one accumulator, one Source and one row
// buffer.
type scratch struct {
	tks    []knn.TopK // one accumulator, emptied in place
	src    *profile.Source
	ids    []uint32
	scores []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// topK returns the scratch's accumulator, empty, with capacity k.
func (sc *scratch) topK(k int) (*knn.TopK, error) {
	tks, err := knn.ResetTopKs(sc.tks, 1, k)
	if err != nil {
		return nil, err
	}
	sc.tks = tks
	return &tks[0], nil
}

// source returns the scratch's Source, scoring under sim.
func (sc *scratch) source(sim profile.Similarity) *profile.Source {
	if sc.src == nil {
		sc.src = profile.NewSource(sim)
	} else {
		sc.src.SetSimilarity(sim)
	}
	return sc.src
}

// Remove strips user u from g: its out-list empties and it disappears
// from every other user's list (lists shrink below K; the next full
// iteration refills them). Returns the users whose lists changed,
// which is the O(n·K) reverse scan's touched set. It is RemoveRun of
// the one-user run, scanning every row.
func Remove(g *graph.KNN, u uint32) ([]uint32, error) {
	touched, err := RemoveRun(g, []uint32{u}, nil)
	return touched[0], err
}

// RemoveRun strips every user of run from g and returns, for each run
// member in order, the users whose lists its strip changed — exactly
// what Remove(g, run[0]), Remove(g, run[1]), … would return one call at
// a time. So a later member that lists an earlier one is in the earlier
// one's touched list (its list still held the id when that strip ran),
// while an earlier member that lists a later one is not in the later
// one's list (it was emptied first). A repeated id's later occurrences
// touch nothing. With in-lists naming a superset of the rows that list
// each member, only those rows are visited, in ascending order; with
// nil, every row is, one O(n·K) scan. Either way the strip visits every
// row that lists a member in the same order, so both give the same
// touched lists and the same graph.
func RemoveRun(g *graph.KNN, run []uint32, in *InLists) ([][]uint32, error) {
	touched := make([][]uint32, len(run))
	n := g.NumNodes()
	// member marks the run's ids; order maps each id to the run index
	// of its first occurrence.
	member := make(graph.NodeSet, (n+63)/64)
	order := make([]runIndex, 0, len(run))
	for i, u := range run {
		if int(u) >= n || member.Has(u) {
			continue
		}
		member.Add(u)
		order = append(order, runIndex{u, i})
	}
	if len(order) == 0 {
		return touched, nil
	}
	slices.SortFunc(order, func(a, b runIndex) int { return cmp.Compare(a.id, b.id) })
	indexOf := func(u uint32) int {
		k, _ := slices.BinarySearchFunc(order, u, func(r runIndex, u uint32) int { return cmp.Compare(r.id, u) })
		return order[k].at
	}

	// Only ids in [lo, hi] can be members: one unsigned compare rejects
	// the rest, so for one user or a run of nearby ids nearly every
	// probe ends there.
	lo, span := order[0].id, order[len(order)-1].id-order[0].id
	inRun := func(w uint32) bool { return w-lo <= span && member.Has(w) }
	lists := func(v uint32) bool {
		for _, w := range g.Neighbors(v) {
			if inRun(w) {
				return true
			}
		}
		return false
	}
	// strip removes the members from row v, which lists one. A stripped
	// row is assembled in kept and keptScores, which SetScored copies;
	// the kept neighbors keep their scores when the row holds them.
	var kept []uint32
	var keptScores []float64
	strip := func(v uint32) error {
		// A member's own list empties at its turn: it is touched only
		// by the strips of members after it, and is cleared below.
		at := len(run)
		if member.Has(v) {
			at = indexOf(v)
		}
		nbrs, scores := g.Neighbors(v), g.Scores(v)
		kept, keptScores = kept[:0], keptScores[:0]
		for i, w := range nbrs {
			if !inRun(w) {
				kept = append(kept, w)
				if scores != nil {
					keptScores = append(keptScores, scores[i])
				}
				continue
			}
			if j := indexOf(w); j < at {
				touched[j] = append(touched[j], v)
			}
		}
		if at < len(run) {
			return nil
		}
		var ks []float64
		if scores != nil {
			ks = keptScores
		}
		if err := g.SetScored(v, kept, ks); err != nil {
			return fmt.Errorf("delta: strip run from %d: %w", v, err)
		}
		return nil
	}
	if in != nil {
		for _, v := range in.Rows(run...) {
			if int(v) < n && lists(v) {
				if err := strip(v); err != nil {
					return touched, err
				}
			}
		}
	} else {
		for v := uint32(0); int(v) < n; v++ {
			if lists(v) {
				if err := strip(v); err != nil {
					return touched, err
				}
			}
		}
	}
	for _, r := range order {
		if len(g.Neighbors(r.id)) > 0 {
			if err := g.Set(r.id, nil); err != nil {
				return touched, fmt.Errorf("delta: clear %d: %w", r.id, err)
			}
		}
	}
	return touched, nil
}

// runIndex pairs a run member with its position in the run.
type runIndex struct {
	id uint32
	at int
}

// Rescore brings the scores g holds up to date after the profiles of
// the users in changed have changed: in every row that holds scores,
// each entry naming a changed user is rescored under sim with the
// profiles the lookup returns, and a changed user's own row is rescored
// whole. Ids never move, so no row is reranked; rows holding no scores
// are left alone. It returns the number of evaluations.
func Rescore(g *graph.KNN, changed graph.NodeSet, profiles func(uint32) (profile.Vector, error), sim profile.Similarity) (int, error) {
	evals := 0
	var scores []float64
	for v := uint32(0); int(v) < g.NumNodes(); v++ {
		nbrs, old := g.Neighbors(v), g.Scores(v)
		if len(old) == 0 {
			continue // no scores, or no neighbors
		}
		whole := changed.Has(v)
		stale := whole
		for _, w := range nbrs {
			stale = stale || changed.Has(w)
		}
		if !stale {
			continue
		}
		pv, err := profiles(v)
		if err != nil {
			return evals, fmt.Errorf("delta: rescore user %d: %w", v, err)
		}
		scores = append(scores[:0], old...)
		for i, w := range nbrs {
			if whole || changed.Has(w) {
				pw, err := profiles(w)
				if err != nil {
					return evals, fmt.Errorf("delta: rescore neighbor %d of %d: %w", w, v, err)
				}
				scores[i] = sim.Score(pv, pw)
				evals++
			}
		}
		if err := g.SetScored(v, nbrs, scores); err != nil {
			return evals, fmt.Errorf("delta: rescore user %d: %w", v, err)
		}
	}
	return evals, nil
}

// RescoreListers is Rescore of the one changed user u for a caller that
// has just written u's own row with u's new profile, as an upsert's
// Insert does: it visits only the rows in names for u, rescores the
// entry naming u in each of them that lists u and holds scores, and
// leaves u's own row alone. It returns the number of evaluations.
func RescoreListers(g *graph.KNN, in *InLists, u uint32, profiles func(uint32) (profile.Vector, error), sim profile.Similarity) (int, error) {
	pu, err := profiles(u)
	if err != nil {
		return 0, fmt.Errorf("delta: rescore listers of %d: %w", u, err)
	}
	evals := 0
	var scores []float64
	for _, v := range in.Rows(u) {
		nbrs, old := g.Neighbors(v), g.Scores(v)
		i, lists := slices.BinarySearch(nbrs, u)
		if !lists || old == nil {
			continue // a stale entry, or a row holding no scores
		}
		pv, err := profiles(v)
		if err != nil {
			return evals, fmt.Errorf("delta: rescore user %d: %w", v, err)
		}
		scores = append(scores[:0], old...)
		scores[i] = sim.Score(pv, pu)
		evals++
		if err := g.SetScored(v, nbrs, scores); err != nil {
			return evals, fmt.Errorf("delta: rescore user %d: %w", v, err)
		}
	}
	return evals, nil
}
