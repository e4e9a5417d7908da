package pigraph

import (
	"container/heap"
	"slices"
	"sort"
)

// This file holds heuristics beyond the paper's three: the naive
// baseline its introduction argues against, and the slot- and
// worker-aware planner its future-work section calls for.

// EdgeOrder is the strawman the paper's design exists to avoid:
// process PI edges one at a time in an order with no partition
// locality (a deterministic hash scatter, modeling tuples consumed in
// arbitrary hash-table order). Consecutive edges rarely share a
// resident partition, so the two memory slots thrash — "accessing
// their profiles from respective partitions in an arbitrary fashion
// can lead to poor performance due to various random accesses to
// disk". It exists to quantify how much the node-major heuristics
// save.
type EdgeOrder struct{}

// Name implements Heuristic.
func (EdgeOrder) Name() string { return "Edge-Order" }

// Plan implements Heuristic.
func (EdgeOrder) Plan(g *PIGraph) *Schedule {
	st := newTraversal(g)
	m := g.NumPartitions()
	type scatterEdge struct {
		key  uint64
		i, j uint32
		self bool
	}
	var edges []scatterEdge
	for i := uint32(0); int(i) < m; i++ {
		if st.self[i] {
			edges = append(edges, scatterEdge{key: scatterKey(i, i), i: i, self: true})
		}
		for _, j := range g.Neighbors(i) {
			if i < j { // one entry per unordered pair
				edges = append(edges, scatterEdge{key: scatterKey(i, j), i: i, j: j})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].key != edges[b].key {
			return edges[a].key < edges[b].key
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	for _, e := range edges {
		if e.self {
			st.emit(e.i, nil)
			continue
		}
		st.emit(e.i, []uint32{e.j})
	}
	return st.schedule()
}

// scatterKey is a deterministic pair hash (Fibonacci scrambling) that
// destroys any id locality in the edge order.
func scatterKey(i, j uint32) uint64 {
	x := uint64(i)<<32 | uint64(j)
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	return x
}

// MaxReuse is the planner built for the budget it runs under: slots
// resident partitions per tape worker and workers tape workers (below 2
// and 1 select those defaults). Where the paper's heuristics visit one
// primary's whole star at a time, it walks the live PI edges greedily
// over a model of the S slots: after each load it emits the free steps
// (the loaded partition's self-shard and its pairs with residents), then
// loads the partition that unlocks the most steps with the residents
// that survive the load, evicting one it does not connect to, else the
// one with the fewest live edges; with nothing to unlock it cold-starts
// from the highest remaining degree. The modelled slots empty at each of
// Split(workers)'s quota boundaries, so each worker's segment is one
// cohesive walk. A plan made for one budget stays valid at any other,
// only less tight.
func MaxReuse(slots, workers int) Heuristic {
	return maxReuse{slots: max(slots, 2), workers: max(workers, 1)}
}

type maxReuse struct{ slots, workers int }

// Name implements Heuristic.
func (maxReuse) Name() string { return "Max-Reuse" }

// Plan implements Heuristic.
func (h maxReuse) Plan(g *PIGraph) *Schedule {
	w := newReuseWalk(g, h.slots)
	total := g.NumEdges()
	for p := range w.self {
		if w.self[p] {
			total++
		}
	}
	for _, quota := range quotas(total, h.workers) {
		w.walk(quota)
		for len(w.resident) > 0 {
			w.evict(w.resident[0])
		}
	}
	return w.schedule()
}

// reuseWalk is Max-Reuse's state. conn counts each partition's live
// edges to resident partitions and is kept current on load, evict and
// consume, so choosing a load never rescans the residents' adjacency.
type reuseWalk struct {
	*traversal
	slots    int
	adj      [][]uint32 // live neighbours in id order; consumed edges dropped lazily
	resident []uint32   // the modelled slots, in load order
	isRes    []bool
	conn     []int
	reuse    maxHeap // candidates by rank; an entry is live while its rank is current
	queued   []int   // per partition: the rank of its newest entry in reuse, 0 if none
	cold     *degreeQueue
}

func newReuseWalk(g *PIGraph, slots int) *reuseWalk {
	m := g.NumPartitions()
	w := &reuseWalk{
		traversal: newTraversal(g),
		slots:     slots,
		adj:       make([][]uint32, m),
		isRes:     make([]bool, m),
		conn:      make([]int, m),
		queued:    make([]int, m),
		cold:      newDegreeQueue(g),
	}
	for p := range w.adj {
		w.adj[p] = g.Neighbors(uint32(p))
		w.offer(uint32(p)) // self-only work scores 1 from the start
	}
	return w
}

// rank orders load candidates: the steps loading p unlocks now — its
// edges to the residents that survive the load (at most slots-1, since
// a full machine evicts one) plus its self-shard — then the fewest live
// edges, finishing nearly-done partitions before they strand. 0 means
// loading p unlocks nothing.
func (w *reuseWalk) rank(p uint32) int {
	steps := min(w.conn[p], w.slots-1)
	if w.self[p] {
		steps++
	}
	if steps == 0 {
		return 0
	}
	m := len(w.deg)
	return steps*(m+1) + m - w.deg[p]
}

// offer (re)queues non-resident p under its current rank, unless its
// newest entry already carries it.
func (w *reuseWalk) offer(p uint32) {
	if r := w.rank(p); r > 0 && !w.isRes[p] && r != w.queued[p] {
		heap.Push(&w.reuse, heapEntry{key: r, p: p})
		w.queued[p] = r
	}
}

// liveNbrs returns p's live neighbours in id order, dropping consumed
// edges from its list as it goes.
func (w *reuseWalk) liveNbrs(p uint32) []uint32 {
	live := w.adj[p][:0]
	for _, q := range w.adj[p] {
		if _, ok := w.live[p][q]; ok {
			live = append(live, q)
		}
	}
	w.adj[p] = live
	return live
}

// next picks the partition to load: the best live reuse candidate, else
// a cold start.
func (w *reuseWalk) next() (uint32, bool) {
	for w.reuse.Len() > 0 {
		e := heap.Pop(&w.reuse).(heapEntry)
		if e.key == w.queued[e.p] {
			w.queued[e.p] = 0
		}
		if !w.isRes[e.p] && e.key == w.rank(e.p) {
			return e.p, true
		}
	}
	return w.cold.popMax(w.traversal)
}

// walk emits up to quota steps.
func (w *reuseWalk) walk(quota int) {
	for quota > 0 {
		x, ok := w.next()
		if !ok {
			return
		}
		if len(w.resident) == w.slots {
			w.evict(w.victim(x))
		}
		w.resident = append(w.resident, x)
		w.isRes[x] = true
		for _, q := range w.liveNbrs(x) {
			w.conn[q]++
			w.offer(q)
		}

		// The free steps: x's self-shard, then its pairs with residents.
		if w.self[x] {
			quota--
		}
		var peers []uint32
		for _, r := range w.resident {
			if _, ok := w.live[x][r]; ok && quota > 0 {
				peers = append(peers, r)
				quota--
			}
		}
		if len(peers) == 0 && !w.self[x] {
			continue // a cold start: x's partners come next
		}
		w.emit(x, peers)
		w.conn[x] -= len(peers)
		for _, r := range peers {
			w.conn[r]--
		}
	}
}

// victim is the resident to evict for x: one x does not connect to if
// any, else the one with the fewest live edges, ties to the earliest
// loaded.
func (w *reuseWalk) victim(x uint32) uint32 {
	best, bestLinked := w.resident[0], true
	for i, r := range w.resident {
		_, linked := w.live[x][r]
		if i == 0 || (!linked && bestLinked) || (linked == bestLinked && w.deg[r] < w.deg[best]) {
			best, bestLinked = r, linked
		}
	}
	return best
}

func (w *reuseWalk) evict(r uint32) {
	w.resident = slices.DeleteFunc(w.resident, func(p uint32) bool { return p == r })
	w.isRes[r] = false
	for _, q := range w.liveNbrs(r) {
		w.conn[q]--
		w.offer(q)
	}
	w.offer(r)
	w.cold.push(r, w.deg[r])
}
