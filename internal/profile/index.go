package profile

import (
	"cmp"
	"math/bits"
	"slices"
)

// Index is an item-major copy of a set of profiles, restricted to the
// items it covers: for every covered item the users holding it with
// their weights (the item's postings), plus each user's norm and item
// count. Scan scores one profile whose items are all covered against
// every indexed user that shares an item with it. Under a measure an
// index accepts, a pair that shares no item scores 0, so those users
// are the only ones that can score otherwise.
//
// Scan's scores are Similarity.Score's bits: for each candidate it adds
// float64(wa)·float64(wb) from 0 in the scanned profile's ascending item
// order, which is the order Vector.Dot adds the same products, counts
// the shared items, and hands both to the measure's one formula.
//
// An index holds the postings of the covered items only, so indexing a
// whole population to answer a few profiles costs memory in proportion
// to what those profiles share, not to the population: 8 bytes per kept
// posting, plus 28 per user of scratch that Reset keeps for the next
// use. An Index is not safe for concurrent use; Scan writes its scratch.
type Index struct {
	kern  formula
	slot  map[uint32]int32 // covered item → its postings in lists
	lists [][]posting      // each ascending by user
	// filter has bit hash(item) set for every covered item, so Add
	// turns away most items of a profile without a map lookup.
	filter []uint64
	shift  uint32
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

func byUser(p posting, u uint32) int { return cmp.Compare(p.user, u) }

// filterBitsPerItem sizes the filter: with 16 bits per covered item
// about one uncovered item in 16 gets as far as the map.
const filterBitsPerItem = 16

// NewIndex returns an empty index scoring under sim that covers no
// item. It reports false for a measure that is not a function of the
// shared items, which an index cannot score.
func NewIndex(sim Similarity) (*Index, bool) {
	kern, ok := sim.(formula)
	if !ok {
		return nil, false
	}
	ix := &Index{kern: kern, slot: make(map[uint32]int32)}
	ix.Reset(nil)
	return ix, true
}

// Reset empties the index and makes it cover every item of cover's
// profiles, keeping its memory for reuse.
func (ix *Index) Reset(cover []Vector) {
	clear(ix.slot)
	for i := range ix.lists {
		ix.lists[i] = ix.lists[i][:0]
	}
	ix.lists = ix.lists[:0]
	clear(ix.shapes)
	for _, v := range cover {
		for _, it := range v.items {
			if _, ok := ix.slot[it]; !ok {
				ix.slot[it] = int32(len(ix.lists))
				if n := len(ix.lists); n < cap(ix.lists) {
					ix.lists = ix.lists[:n+1] // an emptied list, kept for its room
				} else {
					ix.lists = append(ix.lists, nil)
				}
			}
		}
	}
	width := min(max(bits.Len(uint(len(ix.slot)*filterBitsPerItem)), 6), 32)
	ix.shift = uint32(32 - width)
	if words := 1 << (width - 6); cap(ix.filter) < words {
		ix.filter = make([]uint64, words)
	} else {
		ix.filter = ix.filter[:words]
		clear(ix.filter)
	}
	for it := range ix.slot {
		h := (it * hashMul) >> ix.shift
		ix.filter[h>>6] |= 1 << (h & 63)
	}
}

// covered returns item's postings slot, or false if the index does not
// cover item.
func (ix *Index) covered(item uint32) (int32, bool) {
	if h := (item * hashMul) >> (ix.shift & 31); ix.filter[h>>6]&(1<<(h&63)) == 0 {
		return 0, false
	}
	s, ok := ix.slot[item]
	return s, ok
}

// Add indexes user u with profile v: its norm and length, and its
// postings for the covered items. u must not be indexed already.
func (ix *Index) Add(u uint32, v Vector) {
	if n := int(u) + 1; n > len(ix.shapes) {
		ix.shapes = slices.Grow(ix.shapes, n-len(ix.shapes))[:n]
		ix.dots = slices.Grow(ix.dots, n-len(ix.dots))[:n]
		ix.shared = slices.Grow(ix.shared, n-len(ix.shared))[:n]
	}
	ix.shapes[u] = v.shape()
	for i, it := range v.items {
		s, ok := ix.covered(it)
		if !ok {
			continue
		}
		ps := ix.lists[s]
		j := len(ps) // users are mostly added in id order
		if j > 0 && ps[j-1].user > u {
			j, _ = slices.BinarySearchFunc(ps, u, byUser)
		}
		ix.lists[s] = slices.Insert(ps, j, posting{user: u, weight: v.weights[i]})
	}
}

// Remove drops user u, which was indexed with profile v.
func (ix *Index) Remove(u uint32, v Vector) {
	for _, it := range v.items {
		s, ok := ix.covered(it)
		if !ok {
			continue
		}
		if j, ok := slices.BinarySearchFunc(ix.lists[s], u, byUser); ok {
			ix.lists[s] = slices.Delete(ix.lists[s], j, j+1)
		}
	}
	if int(u) < len(ix.shapes) {
		ix.shapes[u] = shape{}
	}
}

// Scan scores v, whose items must all be covered, against every indexed
// user that shares an item with it and returns those users in ascending
// id order with their scores; a user indexed with v itself is among
// them. Both slices are valid until the next Scan.
func (ix *Index) Scan(v Vector) (users []uint32, scores []float64) {
	users = ix.users[:0]
	for i, it := range v.items {
		s, ok := ix.slot[it]
		if !ok {
			continue
		}
		w := float64(v.weights[i])
		for _, p := range ix.lists[s] {
			if ix.shared[p.user] == 0 {
				users = append(users, p.user)
			}
			ix.dots[p.user] += w * float64(p.weight)
			ix.shared[p.user]++
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
