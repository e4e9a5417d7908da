// Package knn implements phase 4 of the paper: scoring the candidate
// tuples of H against user profiles and maintaining each user's K most
// similar candidates, from which the next graph G(t+1) is assembled. It
// also provides the recall metric used to compare the out-of-core
// result against exact brute force.
package knn

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Scored is a candidate neighbor with its similarity score.
type Scored struct {
	ID    uint32
	Score float64
}

// Better reports whether a ranks strictly above b: higher score first,
// ties to the smaller id. It is the single ordering used everywhere so
// results are deterministic.
func Better(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// bestFirst is Better as a three-way comparison, for sorting.
func bestFirst(a, b Scored) int {
	switch {
	case Better(a, b):
		return -1
	case Better(b, a):
		return 1
	default:
		return 0
	}
}

// TopK accumulates a user's best K candidates. It is a bounded min-heap
// (the root is the currently weakest kept candidate), giving O(log K)
// insertion. Candidates must be distinct ids — the hash table H
// guarantees each (s, d) pair is scored once per iteration.
//
// TopK is the unit of partition state the engine persists: a partition
// file carries one accumulator per member, serialized with
// AppendBinary.
type TopK struct {
	k       int
	entries []Scored // min-heap by inverse Better order
}

// NewTopK returns an empty accumulator with capacity k (k ≥ 1).
func NewTopK(k int) (*TopK, error) {
	if k <= 0 {
		return nil, fmt.Errorf("knn: top-k capacity must be positive, got %d", k)
	}
	return &TopK{k: k, entries: make([]Scored, 0, k)}, nil
}

// NewTopKs returns n empty accumulators of capacity k (k ≥ 1) carved
// from one backing array — the accumulators of a partition, which are
// built, decoded and dropped together.
func NewTopKs(n, k int) ([]TopK, error) {
	if k <= 0 {
		return nil, fmt.Errorf("knn: top-k capacity must be positive, got %d", k)
	}
	backing := make([]Scored, n*k)
	accs := make([]TopK, n)
	for i := range accs {
		accs[i] = TopK{k: k, entries: backing[i*k : i*k : (i+1)*k]}
	}
	return accs, nil
}

// K reports the capacity.
func (t *TopK) K() int { return t.k }

// Len reports the number of held candidates.
func (t *TopK) Len() int { return len(t.entries) }

// worse is the heap ordering: entries[i] ranks below entries[j].
func (t *TopK) worse(i, j int) bool { return Better(t.entries[j], t.entries[i]) }

// Push offers a candidate. It keeps the K best seen so far.
func (t *TopK) Push(id uint32, score float64) {
	s := Scored{ID: id, Score: score}
	if len(t.entries) < t.k {
		t.entries = append(t.entries, s)
		t.up(len(t.entries) - 1)
		return
	}
	if !Better(s, t.entries[0]) {
		return
	}
	t.entries[0] = s
	t.down(0)
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			break
		}
		t.entries[i], t.entries[parent] = t.entries[parent], t.entries[i]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.entries)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && t.worse(l, worst) {
			worst = l
		}
		if r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.entries[i], t.entries[worst] = t.entries[worst], t.entries[i]
		i = worst
	}
}

// Merge folds every candidate of o into t.
func (t *TopK) Merge(o *TopK) {
	for _, e := range o.entries {
		t.Push(e.ID, e.Score)
	}
}

// Result returns the held candidates best-first (score descending, ties
// by ascending id).
func (t *TopK) Result() []Scored {
	out := append([]Scored(nil), t.entries...)
	slices.SortFunc(out, bestFirst)
	return out
}

// IDs returns the held candidate ids best-first.
func (t *TopK) IDs() []uint32 {
	res := t.Result()
	ids := make([]uint32, len(res))
	for i, s := range res {
		ids[i] = s.ID
	}
	return ids
}

// AppendIDs appends the held candidate ids to buf in heap order — no
// ranking, for a caller that sorts them its own way (a G(t+1) row is
// stored sorted by id) — so an emitter that reuses one buffer assembles
// rows without allocating.
func (t *TopK) AppendIDs(buf []uint32) []uint32 {
	for _, e := range t.entries {
		buf = append(buf, e.ID)
	}
	return buf
}

// ByteSize reports the encoded size in bytes.
func (t *TopK) ByteSize() int { return 8 + 12*len(t.entries) }

// AppendBinary appends the accumulator's encoding to buf. Layout: k
// uint32, count uint32, then count × (id uint32, score float64 bits).
func (t *TopK) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.entries)))
	for _, e := range t.entries {
		buf = binary.LittleEndian.AppendUint32(buf, e.ID)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Score))
	}
	return buf
}

// SkipTopK steps over the accumulator encoded at the front of buf
// without decoding it, returning its capacity k, the number of
// candidates it holds and the remaining bytes.
func SkipTopK(buf []byte) (k, n int, rest []byte, err error) {
	if len(buf) < 8 {
		return 0, 0, nil, fmt.Errorf("knn: short top-k header (%d bytes)", len(buf))
	}
	k = int(binary.LittleEndian.Uint32(buf))
	n = int(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if k <= 0 || n > k {
		return 0, 0, nil, fmt.Errorf("knn: invalid top-k header k=%d n=%d", k, n)
	}
	if len(buf)/12 < n {
		return 0, 0, nil, fmt.Errorf("knn: top-k payload truncated: want %d entries, have %d bytes", n, len(buf))
	}
	return k, n, buf[12*n:], nil
}

// Decode replaces t's candidates with those of the accumulator encoded
// at the front of buf, reusing t's storage, and returns the remaining
// bytes. The encoded capacity must be t's own: an accumulator of
// another K is not a state this one can continue. A refused encoding
// leaves t as it was, or empty.
func (t *TopK) Decode(buf []byte) ([]byte, error) {
	k, n, rest, err := SkipTopK(buf)
	if err != nil {
		return nil, err
	}
	if k != t.k {
		return nil, fmt.Errorf("knn: encoded top-k has capacity %d, want %d", k, t.k)
	}
	t.entries = t.entries[:0]
	for i := 0; i < n; i++ {
		t.entries = append(t.entries, Scored{
			ID:    binary.LittleEndian.Uint32(buf[8+12*i:]),
			Score: math.Float64frombits(binary.LittleEndian.Uint64(buf[12+12*i:])),
		})
	}
	// The encoding preserves the heap order. Bytes that break it are
	// refused, not repaired, so what Decode accepts re-encodes as is.
	for i := 1; i < len(t.entries); i++ {
		if t.worse(i, (i-1)/2) {
			t.entries = t.entries[:0]
			return nil, fmt.Errorf("knn: encoded top-k breaks the heap order at entry %d", i)
		}
	}
	return rest, nil
}

// SelectTopK is the sort-based reference selection used by tests and
// the brute-force baseline: the K best of candidates under the same
// ordering as TopK.
func SelectTopK(candidates []Scored, k int) []Scored {
	out := append([]Scored(nil), candidates...)
	slices.SortFunc(out, bestFirst)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
