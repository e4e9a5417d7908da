package pigraph

import (
	"container/heap"
	"sort"
)

// Visit is one step of a schedule: load Primary, optionally process its
// self-shard, then co-load each peer in order and process the tuple
// shards of the unordered pair {Primary, peer}.
type Visit struct {
	Primary uint32
	Self    bool
	Peers   []uint32
}

// Schedule is a complete traversal plan: executing its visits in order
// processes every PI edge exactly once and every self-shard exactly
// once.
type Schedule struct {
	NumPartitions int
	Visits        []Visit
}

// Heuristic decides the traversal order of the PI graph. The paper
// evaluates Sequential, DegreeHighLow and DegreeLowHigh; MaxReuse is
// the "better heuristics" extension its future work calls for.
type Heuristic interface {
	// Name identifies the heuristic in experiment output; Table 1 uses
	// the paper's column labels.
	Name() string
	// Plan builds the traversal schedule for g.
	Plan(g *PIGraph) *Schedule
}

// Sequential is the paper's baseline: partitions are processed in
// ascending id order; each visit processes all of the partition's
// remaining PI edges in ascending neighbor order, then retires the
// partition. Partitions whose edges were all consumed by earlier visits
// are skipped entirely.
type Sequential struct{}

// Name implements Heuristic.
func (Sequential) Name() string { return "Seq." }

// Plan implements Heuristic.
func (Sequential) Plan(g *PIGraph) *Schedule {
	st := newTraversal(g)
	for p := uint32(0); int(p) < g.NumPartitions(); p++ {
		if !st.hasWork(p) {
			continue
		}
		st.emit(p, st.livePeers(p))
	}
	return st.schedule()
}

// degreeOrder is the shared machinery of the two degree-based
// heuristics: the next partition visited is the one with the highest
// *remaining* degree (most unprocessed PI edges; ties to the smaller
// id), matching the paper's "starts processing vertices with the
// highest degree". The two variants differ in the order the visit's
// edges are processed: descending peer degree (High-Low) or ascending
// (Low-High).
type degreeOrder struct {
	name      string
	ascending bool
}

// DegreeHighLow is the paper's first degree-based heuristic: highest-
// degree partition first, edges toward higher-degree peers first.
func DegreeHighLow() Heuristic { return degreeOrder{name: "High-Low"} }

// DegreeLowHigh is the paper's second degree-based heuristic: highest-
// degree partition first, edges toward lower-degree peers first.
func DegreeLowHigh() Heuristic { return degreeOrder{name: "Low-High", ascending: true} }

// Name implements Heuristic.
func (d degreeOrder) Name() string { return d.name }

// Plan implements Heuristic.
func (d degreeOrder) Plan(g *PIGraph) *Schedule {
	st := newTraversal(g)
	pq := newDegreeQueue(g)
	for {
		p, ok := pq.popMax(st)
		if !ok {
			break
		}
		peers := st.livePeers(p)
		st.sortPeersByDegree(peers, d.ascending)
		st.emit(p, peers)
		// Peer degrees dropped; refresh their queue entries.
		for _, q := range peers {
			pq.push(q, st.deg[q])
		}
	}
	return st.schedule()
}

// traversal tracks the live (unprocessed) PI adjacency while a
// heuristic consumes it.
type traversal struct {
	g      *PIGraph
	live   []map[uint32]struct{}
	deg    []int
	self   []bool
	visits []Visit
}

func newTraversal(g *PIGraph) *traversal {
	m := g.NumPartitions()
	st := &traversal{
		g:    g,
		live: make([]map[uint32]struct{}, m),
		deg:  make([]int, m),
		self: make([]bool, m),
	}
	for i := 0; i < m; i++ {
		nbrs := g.Neighbors(uint32(i))
		st.live[i] = make(map[uint32]struct{}, len(nbrs))
		for _, j := range nbrs {
			st.live[i][j] = struct{}{}
		}
		st.deg[i] = len(nbrs)
		st.self[i] = g.SelfWeight(uint32(i)) > 0
	}
	return st
}

func (st *traversal) hasWork(p uint32) bool {
	return st.deg[p] > 0 || st.self[p]
}

// livePeers returns the remaining neighbors of p, sorted by id — the
// live set is a map, and handing its random iteration order to
// callers would make every schedule depend on the callers' sorts
// being total. Sorting here makes the contract local.
func (st *traversal) livePeers(p uint32) []uint32 {
	peers := make([]uint32, 0, len(st.live[p]))
	for q := range st.live[p] {
		peers = append(peers, q)
	}
	sort.Slice(peers, func(a, b int) bool { return peers[a] < peers[b] })
	return peers
}

// sortPeersByDegree orders peers by their remaining degree (snapshot at
// visit start), ties to the smaller id.
func (st *traversal) sortPeersByDegree(peers []uint32, ascending bool) {
	sort.Slice(peers, func(a, b int) bool {
		da, db := st.deg[peers[a]], st.deg[peers[b]]
		if da != db {
			if ascending {
				return da < db
			}
			return da > db
		}
		return peers[a] < peers[b]
	})
}

// emit records the visit and consumes its edges and self work.
func (st *traversal) emit(p uint32, peers []uint32) {
	v := Visit{Primary: p, Self: st.self[p], Peers: peers}
	st.self[p] = false
	for _, q := range peers {
		delete(st.live[p], q)
		delete(st.live[q], p)
		st.deg[p]--
		st.deg[q]--
	}
	st.visits = append(st.visits, v)
}

func (st *traversal) schedule() *Schedule {
	return &Schedule{NumPartitions: st.g.NumPartitions(), Visits: st.visits}
}

// degreeQueue is a max-heap of (degree, partition) with lazy deletion:
// stale entries (whose degree no longer matches) are discarded on pop.
type degreeQueue struct {
	entries maxHeap
}

// maxHeap is a container/heap of (key, partition) entries, largest key
// first, ties to the smaller id.
type maxHeap []heapEntry

type heapEntry struct {
	key int
	p   uint32
}

func (h maxHeap) Len() int { return len(h) }
func (h maxHeap) Less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key > h[b].key
	}
	return h[a].p < h[b].p
}
func (h maxHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newDegreeQueue(g *PIGraph) *degreeQueue {
	q := &degreeQueue{}
	for i := 0; i < g.NumPartitions(); i++ {
		q.entries = append(q.entries, heapEntry{key: g.Degree(uint32(i)), p: uint32(i)})
	}
	heap.Init(&q.entries)
	return q
}

func (q *degreeQueue) push(p uint32, deg int) {
	heap.Push(&q.entries, heapEntry{key: deg, p: p})
}

// popMax returns the partition with the highest current remaining
// degree that still has work, discarding stale heap entries.
func (q *degreeQueue) popMax(st *traversal) (uint32, bool) {
	for q.entries.Len() > 0 {
		e := heap.Pop(&q.entries).(heapEntry)
		if e.key != st.deg[e.p] {
			continue // stale
		}
		if !st.hasWork(e.p) {
			continue
		}
		return e.p, true
	}
	return 0, false
}

// Heuristics returns the paper's three heuristics in Table 1 column
// order.
func Heuristics() []Heuristic {
	return []Heuristic{Sequential{}, DegreeHighLow(), DegreeLowHigh()}
}

// AllHeuristics additionally includes Max-Reuse (the paper's
// future-work direction), planned for the paper's budget of two slots
// and one cursor, and the naive Edge-Order baseline the paper argues
// against.
func AllHeuristics() []Heuristic { return heuristicsFor(2, 1) }

// heuristicsFor lists every heuristic in Table 1 column order, built
// for slots resident partitions per tape worker and workers tape
// workers; only Max-Reuse reads the budget.
func heuristicsFor(slots, workers int) []Heuristic {
	return append(Heuristics(), MaxReuse(slots, workers), EdgeOrder{})
}

// HeuristicByName resolves a heuristic by Name (case-sensitive) for the
// execution budget it will run under — slots resident partitions per
// tape worker and workers tape workers, 0 selecting the executor's
// defaults of 2 and 1 — reporting false for unknown names.
func HeuristicByName(name string, slots, workers int) (Heuristic, bool) {
	for _, h := range heuristicsFor(slots, workers) {
		if h.Name() == name {
			return h, true
		}
	}
	return nil, false
}
