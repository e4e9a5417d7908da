package delta

import (
	"slices"

	"knnpc/internal/graph"
)

// InLists holds, for every user of a graph, a superset of the rows that
// list it: its in-neighbors when they were built, plus every row an
// edge to it was written into since. Nothing removes an entry, so a row
// that has since dropped the user stays listed, harmlessly, until the
// next Build. RemoveRun and RescoreListers visit only the rows the
// in-lists name, instead of every row of the graph.
//
// The built lists are one slab, user after user, at 4 bytes an entry;
// entries added since are chained per user, at 8 bytes an entry. The
// zero InLists is empty. Not safe for concurrent use.
type InLists struct {
	start []int32  // by user, plus the slab's end: each user's run of from
	from  []uint32 // the slab
	// head is, by user, its chain's first entry plus one, 0 for none;
	// over holds the chained entries.
	head []int32
	over []inEntry
	rows []uint32 // Rows' result, reused
}

// inEntry is an in-list entry added since Build.
type inEntry struct {
	from uint32
	next int32 // the chain's next entry plus one, 0 at its end
}

// Build makes the in-lists exactly g's in-neighbors, keeping their
// memory for reuse.
func (l *InLists) Build(g *graph.KNN) {
	n := g.NumNodes()
	l.start = slices.Grow(l.start[:0], n+1)[:n+1]
	clear(l.start)
	for v := uint32(0); int(v) < n; v++ {
		for _, w := range g.Neighbors(v) {
			l.start[w+1]++
		}
	}
	for u := range n {
		l.start[u+1] += l.start[u]
	}
	l.from = slices.Grow(l.from[:0], int(l.start[n]))[:l.start[n]]
	// head serves as each run's fill cursor, then is cleared.
	l.head = slices.Grow(l.head[:0], n)[:n]
	copy(l.head, l.start[:n])
	for v := uint32(0); int(v) < n; v++ {
		for _, w := range g.Neighbors(v) {
			l.from[l.head[w]] = v
			l.head[w]++
		}
	}
	clear(l.head)
	l.over = l.over[:0]
}

// Add records that row from lists user to.
func (l *InLists) Add(to, from uint32) {
	if n := int(to) + 1; n > len(l.head) {
		m := len(l.head)
		l.head = slices.Grow(l.head, n-m)[:n]
		clear(l.head[m:])
	}
	l.over = append(l.over, inEntry{from: from, next: l.head[to]})
	l.head[to] = int32(len(l.over))
}

// Added reports the entries added since Build.
func (l *InLists) Added() int { return len(l.over) }

// Rows returns the union of the in-lists of users, ascending and
// without repeats. It is valid until the next call.
func (l *InLists) Rows(users ...uint32) []uint32 {
	rows := l.rows[:0]
	for _, u := range users {
		if int(u)+1 < len(l.start) {
			rows = append(rows, l.from[l.start[u]:l.start[u+1]]...)
		}
		if int(u) < len(l.head) {
			for e := l.head[u]; e != 0; e = l.over[e-1].next {
				rows = append(rows, l.over[e-1].from)
			}
		}
	}
	slices.Sort(rows)
	l.rows = slices.Compact(rows)
	return l.rows
}

// Bytes reports the memory the in-lists hold, by capacity.
func (l *InLists) Bytes() int {
	return 4*(cap(l.start)+cap(l.from)+cap(l.head)+cap(l.rows)) + 8*cap(l.over)
}
