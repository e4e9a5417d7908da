package delta

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

// Config tunes the search-then-refine insertion.
type Config struct {
	// K is the neighbor bound (required, ≥ 1; must not exceed the
	// graph's bound).
	K int
	// Sim scores candidate pairs (required). It must be symmetric —
	// the refine pass reuses sim(u,v) as sim(v,u), which holds for
	// every measure internal/profile ships.
	Sim profile.Similarity
	// Seeds is the number of greedy-descent starting points spread
	// deterministically over the id space (default 4).
	Seeds int
	// MaxHops bounds each greedy descent (default 8).
	MaxHops int
	// PartitionOf maps an existing user to its partition in the last
	// committed assignment; -1 for unknown. When non-nil, the
	// candidate pool is restricted to the partitions the descent's
	// seed neighbors live in — the phase-2 locality argument: a new
	// user's true neighbors cluster in few partitions, so scoring the
	// rest is wasted I/O. nil disables the restriction.
	PartitionOf func(uint32) int
	// Dead reports tombstoned users, which are never candidates and
	// never refined. nil means none.
	Dead func(uint32) bool
}

// Result reports what one insertion did.
type Result struct {
	// Neighbors is the inserted user's chosen top-K, sorted by id
	// (the graph's storage order).
	Neighbors []uint32
	// Touched lists existing users whose neighbor lists the refine
	// pass changed.
	Touched []uint32
	// Candidates is the size of the scored candidate pool.
	Candidates int
	// SimEvals counts similarity evaluations, the insertion's compute
	// cost (compare against the ~n·K·K of a full iteration).
	SimEvals int
}

// Insert computes and installs user u's neighborhood in g. u must
// already be a node of g (grown beforehand) with profile vec; its
// previous out-edges, if any, are replaced. The three stages:
//
//  1. Greedy search: from Seeds deterministic starting points, walk to
//     the best-scoring neighbor until no improvement, collecting a set
//     of local optima ("seed neighbors").
//  2. Candidate generation: the seeds, their neighbors, and their
//     neighbors' neighbors — the paper's phase-2 rule applied to the
//     seed set — filtered to the partitions the seed neighborhoods
//     occupy (PartitionOf).
//  3. Refine: u keeps its top-K of the scored pool; each chosen
//     neighbor v then reconsiders its own list with u as a candidate
//     (one bounded NN-descent step), so edges point both ways where
//     similarity warrants.
//
// Everything is deterministic for a fixed (g, profiles, cfg, u, vec):
// seeds are id-arithmetic, candidate pools are scored in ascending id
// order, and ties break by id through knn.Better.
//
// vec is expanded once into a profile.Source and every candidate is
// scored through it, bit for bit what cfg.Sim.Score(vec, ·) returns;
// each candidate is scored at most once, and SimEvals counts those
// scorings.
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
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 4
	}
	maxHops := cfg.MaxHops
	if maxHops <= 0 {
		maxHops = 8
	}
	skip := func(v uint32) bool {
		return v == u || (cfg.Dead != nil && cfg.Dead(v))
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.scores.reset()
	src := profile.NewSource(cfg.Sim)
	src.Reset(vec)
	// score evaluates each candidate against vec once.
	score := func(v uint32) (float64, error) {
		if s, ok := sc.scores.get(v); ok {
			return s, nil
		}
		pv, err := profiles(v)
		if err != nil {
			return 0, fmt.Errorf("delta: profile of candidate %d: %w", v, err)
		}
		s := src.Score(pv)
		res.SimEvals++
		sc.scores.put(v, s)
		return s, nil
	}

	// Stage 1: greedy descents from id-spread seeds.
	stride := n / seeds
	if stride < 1 {
		stride = 1
	}
	var optima []uint32
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
		if !slices.Contains(optima, cur) {
			optima = append(optima, cur)
		}
	}

	// Allowed partitions: where the optima and their direct neighbors
	// live, as a set of partition+1 (PartitionOf's -1 is a partition
	// like any other here).
	var allowed graph.NodeSet
	if cfg.PartitionOf != nil {
		for _, b := range optima {
			allowed.Add(uint32(cfg.PartitionOf(b) + 1))
			for _, v := range g.Neighbors(b) {
				allowed.Add(uint32(cfg.PartitionOf(v) + 1))
			}
		}
	}

	// Stage 2: two-hop candidate pool around the optima. Marking each
	// id in a bitset over the graph deduplicates the pool, and reading
	// the set back word by word yields it in ascending id order, so skip
	// and the partition filter run once per distinct id and no sort is
	// needed. The read-back clears every word it visits.
	seen := sc.seen
	if words := (n + 63) / 64; len(seen) < words {
		seen = make(graph.NodeSet, words)
		sc.seen = seen
	}
	for _, b := range optima {
		seen.Add(b)
		for _, v := range g.Neighbors(b) {
			seen.Add(v)
			for _, w := range g.Neighbors(v) {
				seen.Add(w)
			}
		}
	}
	cands := sc.pool[:0]
	for i, word := range seen {
		if word == 0 {
			continue
		}
		seen[i] = 0
		for ; word != 0; word &= word - 1 {
			v := uint32(i<<6 | bits.TrailingZeros64(word))
			if skip(v) {
				continue
			}
			if cfg.PartitionOf != nil && !allowed.Has(uint32(cfg.PartitionOf(v)+1)) {
				continue
			}
			cands = append(cands, v)
		}
	}
	sc.pool = cands
	res.Candidates = len(cands)

	// Stage 3a: u's top-K of the pool.
	tk, err := knn.NewTopK(cfg.K)
	if err != nil {
		return res, err
	}
	for _, c := range cands {
		s, err := score(c)
		if err != nil {
			return res, err
		}
		tk.Push(c, s)
	}
	res.Neighbors = tk.AppendIDs(nil)
	slices.Sort(res.Neighbors)
	if err := g.Set(u, res.Neighbors); err != nil {
		return res, fmt.Errorf("delta: set neighbors of %d: %w", u, err)
	}

	// Stage 3b: bounded reverse refine — each chosen neighbor
	// reconsiders its list with u as a candidate.
	nsrc := profile.NewSource(cfg.Sim)
	for _, v := range res.Neighbors {
		s, _ := sc.scores.get(v)
		changed, err := refineWith(g, profiles, cfg, nsrc, &res, v, u, s)
		if err != nil {
			return res, err
		}
		if changed {
			res.Touched = append(res.Touched, v)
		}
	}
	return res, nil
}

// refineWith rebuilds v's neighbor list from its current neighbors
// plus the candidate c (scored sim(v,c) = cScore), reporting whether
// the list changed. v's profile is expanded into src once, and its
// neighbors are scored through it.
func refineWith(g *graph.KNN, profiles func(uint32) (profile.Vector, error), cfg Config, src *profile.Source, res *Result, v, c uint32, cScore float64) (bool, error) {
	cur := g.Neighbors(v)
	vvec, err := profiles(v)
	if err != nil {
		return false, fmt.Errorf("delta: profile of refined user %d: %w", v, err)
	}
	src.Reset(vvec)
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
		tk.Push(w, src.Score(wvec))
		res.SimEvals++
	}
	tk.Push(c, cScore)
	next := tk.AppendIDs(nil)
	slices.Sort(next)
	if slices.Equal(next, cur) {
		return false, nil
	}
	if err := g.Set(v, next); err != nil {
		return false, fmt.Errorf("delta: refine user %d: %w", v, err)
	}
	return true, nil
}

// scratch is one Insert's reusable working memory, pooled so a batch
// of inserts recycles it.
type scratch struct {
	scores memo
	seen   graph.NodeSet // all zero between inserts
	pool   []uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// memo maps candidate ids to their scores for one Insert: open
// addressing with linear probing over a power-of-two table, kept at
// most half full. A slot stores id+1, so the zero key marks it empty
// (node ids stay below 2^32−1).
type memo struct {
	keys  []uint32
	vals  []float64
	used  int
	shift uint32
}

// memoMinBits sizes a fresh table for a typical insert's few hundred
// to a thousand scorings.
const memoMinBits = 11

func (m *memo) reset() {
	if m.keys == nil {
		m.alloc(memoMinBits)
		return
	}
	clear(m.keys)
	m.used = 0
}

func (m *memo) alloc(width int) {
	m.keys = make([]uint32, 1<<width)
	m.vals = make([]float64, 1<<width)
	m.shift = uint32(32 - width)
	m.used = 0
}

func (m *memo) slot(v uint32) int { return int(((v + 1) * 0x9E3779B1) >> (m.shift & 31)) }

func (m *memo) get(v uint32) (float64, bool) {
	mask := len(m.keys) - 1
	for i := m.slot(v); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case v + 1:
			return m.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// put records v's score; v must not be present.
func (m *memo) put(v uint32, s float64) {
	if 2*(m.used+1) > len(m.keys) {
		keys, vals := m.keys, m.vals
		m.alloc(bits.Len(uint(len(keys))))
		for i, k := range keys {
			if k != 0 {
				m.put(k-1, vals[i])
			}
		}
	}
	mask := len(m.keys) - 1
	i := m.slot(v)
	for m.keys[i] != 0 {
		i = (i + 1) & mask
	}
	m.keys[i], m.vals[i] = v+1, s
	m.used++
}

// Remove strips user u from g: its out-list empties and it disappears
// from every other user's list (lists shrink below K; the next full
// iteration refills them). Returns the users whose lists changed,
// which is the O(n·K) reverse scan's touched set. It is RemoveRun of
// the one-user run.
func Remove(g *graph.KNN, u uint32) ([]uint32, error) {
	touched, err := RemoveRun(g, []uint32{u})
	return touched[0], err
}

// RemoveRun strips every user of run from g in one O(n·K) scan and
// returns, for each run member in order, the users whose lists its
// strip changed — exactly what Remove(g, run[0]), Remove(g, run[1]), …
// would return one call at a time. So a later member that lists an
// earlier one is in the earlier one's touched list (its list still held
// the id when that strip ran), while an earlier member that lists a
// later one is not in the later one's list (it was emptied first). A
// repeated id's later occurrences touch nothing.
func RemoveRun(g *graph.KNN, run []uint32) ([][]uint32, error) {
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
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(uint32(v))
		hits := 0
		for _, w := range nbrs {
			if inRun(w) {
				hits++
			}
		}
		if hits == 0 {
			continue
		}
		// A member's own list empties at its turn: it is touched only
		// by the strips of members after it, and is cleared below.
		at := len(run)
		if member.Has(uint32(v)) {
			at = indexOf(uint32(v))
		}
		var kept []uint32
		if at == len(run) {
			kept = make([]uint32, 0, len(nbrs)-hits)
		}
		for _, w := range nbrs {
			if !inRun(w) {
				kept = append(kept, w)
				continue
			}
			if j := indexOf(w); j < at {
				touched[j] = append(touched[j], uint32(v))
			}
		}
		if at == len(run) {
			if err := g.Set(uint32(v), kept); err != nil {
				return touched, fmt.Errorf("delta: strip run from %d: %w", v, err)
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
