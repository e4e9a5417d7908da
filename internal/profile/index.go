package profile

import (
	"cmp"
	"fmt"
	"slices"
)

// Index is an item-major copy of a set of profiles, restricted to the
// items it covers: for every covered item the users holding it with
// their weights (the item's postings), plus each user's norm and item
// count. Scan scores a profile against every indexed user that shares
// an item with it. Under a measure an index accepts, a pair that shares
// no item scores 0, so those users are the only ones that can score
// otherwise.
//
// Scan's scores are Similarity.Score's bits: for each candidate it adds
// float64(wa)·float64(wb) from 0 in the scanned profile's ascending item
// order, which is the order Vector.Dot adds the same products, counts
// the shared items, and hands both to the measure's one formula. A user
// holds at most one posting per item, so the order of an item's
// postings does not reach the bits.
//
// The postings live in one slab, item after item: covered item slot s
// owns post[start[s]:start[s+1]], of which the first size[s] are live,
// ascending by user, and the rest is room that Remove left. Add fills a
// run's room when it has some and otherwise chains the posting into the
// item's overflow; once the overflow holds an eighth of the slab, Add
// folds it in, in place. So an index kept for a long time under adds
// and removes costs 8 to 9 bytes per posting, plus 12 per overflow
// posting, 12 per covered item and 28 per user. An Index is not safe
// for concurrent use; Scan writes its scratch.
type Index struct {
	kern  formula
	slot  map[uint32]int32 // covered item → its slot
	start []int32          // by slot, plus the slab's end: each slot's run
	size  []int32          // by slot: the live postings at the run's head
	post  []posting        // the slab
	// head is, by slot, its overflow chain's first entry plus one, 0
	// for none; over holds the chained postings, and free chains the
	// entries Remove released (plus one, 0 for none). nOver counts the
	// chained postings.
	head   []int32
	over   []overflow
	free   int32
	nOver  int
	shapes []shape // by user; zero for a user not indexed

	// Scan's scratch, indexed by user: each candidate's running dot
	// product and shared-item count, all zero between scans; and the
	// slices the last Scan returned.
	dots   []float64
	shared []int32
	users  []uint32
	scores []float64
}

// posting is one entry of an item's postings.
type posting struct {
	user   uint32
	weight float32
}

// overflow is a posting chained into its item's overflow.
type overflow struct {
	posting
	next int32 // the chain's next entry plus one, 0 at its end
}

func byUser(p posting, u uint32) int { return cmp.Compare(p.user, u) }

// minCompact is the overflow below which Add never compacts, so a small
// index is not rewritten for every few adds.
const minCompact = 1024

// NewIndex returns an empty index scoring under sim that covers no
// item. It reports false for a measure that is not a function of the
// shared items, which an index cannot score.
func NewIndex(sim Similarity) (*Index, bool) {
	kern, ok := sim.(formula)
	if !ok {
		return nil, false
	}
	return &Index{kern: kern, slot: make(map[uint32]int32), start: []int32{0}}, true
}

// Build empties the index and indexes users [0, n): profile returns
// user u's profile and whether u is indexed at all. The index then
// covers exactly the items the indexed profiles hold, each item's run
// sized to its postings, with no overflow. Build calls profile twice for
// each user, once to count and once to fill, and must be given the same
// profile both times; it keeps the index's memory for reuse. On error
// the index is left empty.
func (ix *Index) Build(n int, profile func(u uint32) (Vector, bool, error)) error {
	clear(ix.slot)
	ix.start, ix.size, ix.head = ix.start[:1], ix.size[:0], ix.head[:0]
	ix.over, ix.free, ix.nOver = ix.over[:0], 0, 0
	clear(ix.shapes)
	fail := func(err error) error {
		ix.Build(0, nil)
		return err
	}
	for u := uint32(0); int(u) < n; u++ {
		v, ok, err := profile(u)
		if err != nil {
			return fail(err)
		}
		if !ok {
			continue
		}
		ix.Cover(v)
		for _, it := range v.items {
			ix.size[ix.slot[it]]++
		}
	}
	total := int32(0)
	for s, k := range ix.size {
		ix.start[s] = total
		total += k
		ix.size[s] = 0
	}
	ix.start[len(ix.size)] = total
	if cap(ix.post) < int(total) {
		ix.post = make([]posting, total)
	}
	ix.post = ix.post[:total]
	for u := uint32(0); int(u) < n; u++ {
		v, ok, err := profile(u)
		if err != nil {
			return fail(err)
		}
		if !ok {
			continue
		}
		ix.grow(u)
		ix.shapes[u] = v.shape()
		for i, it := range v.items {
			s, covered := ix.slot[it]
			if !covered || ix.start[s]+ix.size[s] == ix.start[s+1] {
				return fail(fmt.Errorf("profile: user %d's profile changed between Build's passes", u))
			}
			ix.post[ix.start[s]+ix.size[s]] = posting{user: u, weight: v.weights[i]}
			ix.size[s]++
		}
	}
	return nil
}

// Cover extends the index to cover every item of v, keeping every
// posting it holds. A newly covered item has no postings.
func (ix *Index) Cover(v Vector) {
	for _, it := range v.items {
		if _, ok := ix.slot[it]; ok {
			continue
		}
		ix.slot[it] = int32(len(ix.size))
		ix.size = append(ix.size, 0)
		ix.head = append(ix.head, 0)
		ix.start = append(ix.start, ix.start[len(ix.start)-1]) // a run with no room
	}
}

// grow sizes the per-user arrays for user u.
func (ix *Index) grow(u uint32) {
	if n := int(u) + 1; n > len(ix.shapes) {
		ix.shapes = slices.Grow(ix.shapes, n-len(ix.shapes))[:n]
		ix.dots = slices.Grow(ix.dots, n-len(ix.dots))[:n]
		ix.shared = slices.Grow(ix.shared, n-len(ix.shared))[:n]
	}
}

// Add indexes user u with profile v: its norm and length, and its
// postings for the covered items. u must not be indexed already.
func (ix *Index) Add(u uint32, v Vector) {
	ix.grow(u)
	ix.shapes[u] = v.shape()
	for i, it := range v.items {
		s, ok := ix.slot[it]
		if !ok {
			continue
		}
		p := posting{user: u, weight: v.weights[i]}
		lo, n := ix.start[s], ix.size[s]
		if lo+n == ix.start[s+1] {
			ix.chain(s, p)
			continue
		}
		run := ix.post[lo : lo+n+1]
		j, _ := slices.BinarySearchFunc(run[:n], u, byUser)
		copy(run[j+1:], run[j:n])
		run[j] = p
		ix.size[s]++
	}
	if ix.nOver > max(len(ix.post)/8, minCompact) {
		ix.compact()
	}
}

// chain puts p into slot s's overflow.
func (ix *Index) chain(s int32, p posting) {
	e := ix.free
	if e != 0 {
		ix.free = ix.over[e-1].next
		ix.over[e-1] = overflow{posting: p, next: ix.head[s]}
	} else {
		ix.over = append(ix.over, overflow{posting: p, next: ix.head[s]})
		e = int32(len(ix.over))
	}
	ix.head[s] = e
	ix.nOver++
}

// Remove drops user u, which was indexed with profile v.
func (ix *Index) Remove(u uint32, v Vector) {
	for _, it := range v.items {
		s, ok := ix.slot[it]
		if !ok {
			continue
		}
		lo, n := ix.start[s], ix.size[s]
		run := ix.post[lo : lo+n]
		if j, found := slices.BinarySearchFunc(run, u, byUser); found {
			copy(run[j:], run[j+1:])
			ix.size[s]--
			continue
		}
		for link := &ix.head[s]; *link != 0; link = &ix.over[*link-1].next {
			if e := *link; ix.over[e-1].user == u {
				*link = ix.over[e-1].next
				ix.over[e-1].next = ix.free
				ix.free = e
				ix.nOver--
				break
			}
		}
	}
	if int(u) < len(ix.shapes) {
		ix.shapes[u] = shape{}
	}
}

// compact folds the overflow into the slab, in place, leaving every run
// exactly as long as its postings. The slab is reallocated only when it
// is too small to hold them, with an eighth to spare, so that under
// steady growth the next compaction fits in it too.
func (ix *Index) compact() {
	slots := len(ix.size)
	// Pack the live runs to the front; each moves left, never over a
	// run not yet moved.
	at := int32(0)
	for s := range slots {
		lo, n := ix.start[s], ix.size[s]
		copy(ix.post[at:at+n], ix.post[lo:lo+n])
		ix.start[s] = at
		at += n
	}
	total := int(at) + ix.nOver
	if cap(ix.post) < total {
		post := make([]posting, total, total+total/8)
		copy(post, ix.post[:at])
		ix.post = post
	}
	ix.post = ix.post[:total]
	// Spread them from the back, each run followed by its chained
	// postings; each moves right, never over a run not yet moved.
	end := int32(total)
	for s := slots - 1; s >= 0; s-- {
		chained := int32(0)
		for e := ix.head[s]; e != 0; e = ix.over[e-1].next {
			chained++
		}
		lo, n := end-ix.size[s]-chained, ix.size[s]
		copy(ix.post[lo:lo+n], ix.post[ix.start[s]:ix.start[s]+n])
		for e := ix.head[s]; e != 0; e = ix.over[e-1].next {
			ix.post[lo+n] = ix.over[e-1].posting
			n++
		}
		if chained > 0 {
			slices.SortFunc(ix.post[lo:lo+n], func(a, b posting) int { return cmp.Compare(a.user, b.user) })
		}
		ix.start[s], ix.size[s], ix.head[s] = lo, n, 0
		end = lo
	}
	ix.start[slots] = int32(total)
	ix.over, ix.free, ix.nOver = ix.over[:0], 0, 0
}

// Scan scores v against every indexed user that shares a covered item
// with it and returns those users in ascending id order with their
// scores; a user indexed with v itself is among them. The scores are
// exact when the index covers every item that v and the indexed users
// share — every item of v, or every item of every indexed user. Both
// slices are valid until the next Scan.
func (ix *Index) Scan(v Vector) (users []uint32, scores []float64) {
	users = ix.users[:0]
	for i, it := range v.items {
		s, ok := ix.slot[it]
		if !ok {
			continue
		}
		w := float64(v.weights[i])
		for _, p := range ix.post[ix.start[s] : ix.start[s]+ix.size[s]] {
			users = ix.accumulate(users, p, w)
		}
		for e := ix.head[s]; e != 0; e = ix.over[e-1].next {
			users = ix.accumulate(users, ix.over[e-1].posting, w)
		}
	}
	slices.Sort(users)
	scores = slices.Grow(ix.scores[:0], len(users))[:len(users)]
	a := v.shape()
	for k, u := range users {
		scores[k] = ix.kern.fromOverlap(ix.dots[u], int(ix.shared[u]), a, ix.shapes[u])
		ix.dots[u], ix.shared[u] = 0, 0
	}
	ix.users, ix.scores = users, scores
	return users, scores
}

// accumulate adds posting p's product with weight w to its user's
// running dot product and shared count, appending the user to users at
// its first.
func (ix *Index) accumulate(users []uint32, p posting, w float64) []uint32 {
	if ix.shared[p.user] == 0 {
		users = append(users, p.user)
	}
	ix.dots[p.user] += w * float64(p.weight)
	ix.shared[p.user]++
	return users
}

// Bytes reports the memory the index holds, by capacity: the slab and
// the overflow, the per-item and per-user arrays, Scan's result slices,
// and 8 bytes per covered item for the item map's keys and values (the
// map's own bookkeeping is not counted).
func (ix *Index) Bytes() int {
	const postingBytes, overflowBytes, shapeBytes = 8, 12, 16
	return postingBytes*cap(ix.post) + overflowBytes*cap(ix.over) +
		4*(cap(ix.start)+cap(ix.size)+cap(ix.head)) + 8*len(ix.slot) +
		shapeBytes*cap(ix.shapes) + 8*cap(ix.dots) + 4*cap(ix.shared) +
		4*cap(ix.users) + 8*cap(ix.scores)
}
