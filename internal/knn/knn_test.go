package knn

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"knnpc/internal/graph"
	"knnpc/internal/profile"
	"knnpc/internal/tuples"
)

func TestNewTopKValidation(t *testing.T) {
	if _, err := NewTopK(0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewTopK(-3); err == nil {
		t.Error("negative k should fail")
	}
}

func TestTopKKeepsBest(t *testing.T) {
	tk, err := NewTopK(2)
	if err != nil {
		t.Fatal(err)
	}
	tk.Push(1, 0.1)
	tk.Push(2, 0.9)
	tk.Push(3, 0.5)
	tk.Push(4, 0.05)
	want := []Scored{{ID: 2, Score: 0.9}, {ID: 3, Score: 0.5}}
	if got := tk.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("Result = %v, want %v", got, want)
	}
	if got := tk.IDs(); !reflect.DeepEqual(got, []uint32{2, 3}) {
		t.Errorf("IDs = %v", got)
	}
}

func TestTopKTieBreaksOnSmallerID(t *testing.T) {
	tk, _ := NewTopK(1)
	tk.Push(9, 0.5)
	tk.Push(3, 0.5) // same score, smaller id wins
	if got := tk.IDs(); !reflect.DeepEqual(got, []uint32{3}) {
		t.Errorf("IDs = %v, want [3]", got)
	}
	tk.Push(7, 0.5) // worse than 3 on the tiebreak
	if got := tk.IDs(); !reflect.DeepEqual(got, []uint32{3}) {
		t.Errorf("IDs after worse tie = %v, want [3]", got)
	}
}

// selectTopK is the sort-based reference selection: the k best of
// candidates under the same ordering as TopK.
func selectTopK(candidates []Scored, k int) []Scored {
	out := append([]Scored(nil), candidates...)
	slices.SortFunc(out, bestFirst)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestTopKMatchesSortSelectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(8)
		n := r.Intn(60)
		tk, err := NewTopK(k)
		if err != nil {
			return false
		}
		candidates := make([]Scored, 0, n)
		for i := 0; i < n; i++ {
			// Distinct ids; quantized scores force plenty of ties.
			s := Scored{ID: uint32(i), Score: float64(r.Intn(10)) / 10}
			candidates = append(candidates, s)
			tk.Push(s.ID, s.Score)
		}
		return reflect.DeepEqual(tk.Result(), selectTopK(candidates, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKMerge(t *testing.T) {
	a, _ := NewTopK(3)
	b, _ := NewTopK(3)
	a.Push(1, 0.9)
	a.Push(2, 0.1)
	b.Push(3, 0.5)
	b.Push(4, 0.7)
	a.Merge(b)
	want := []uint32{1, 4, 3}
	if got := a.IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged IDs = %v, want %v", got, want)
	}
}

// decodeTopK decodes the accumulator at the front of buf into a fresh
// one of the encoded capacity.
func decodeTopK(buf []byte) (*TopK, []byte, error) {
	k, _, _, err := SkipTopK(buf)
	if err != nil {
		return nil, nil, err
	}
	t, err := NewTopK(k)
	if err != nil {
		return nil, nil, err
	}
	rest, err := t.Decode(buf)
	return t, rest, err
}

func TestTopKBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(6)
		tk, err := NewTopK(k)
		if err != nil {
			return false
		}
		for i := 0; i < r.Intn(20); i++ {
			tk.Push(uint32(i), r.Float64())
		}
		buf := tk.AppendBinary(nil)
		if len(buf) != tk.ByteSize() {
			return false
		}
		got, rest, err := decodeTopK(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return reflect.DeepEqual(got.Result(), tk.Result()) && got.K() == tk.K()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTopKErrors(t *testing.T) {
	tk, _ := NewTopK(2)
	tk.Push(1, 0.5)
	buf := tk.AppendBinary(nil)
	if _, _, err := decodeTopK(buf[:4]); err == nil {
		t.Error("short header should fail")
	}
	if _, _, err := decodeTopK(buf[:len(buf)-2]); err == nil {
		t.Error("truncated payload should fail")
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 200 // count > k
	if _, _, err := decodeTopK(bad); err == nil {
		t.Error("count > k should fail")
	}
}

// --- scorer ---

func testProfiles(t *testing.T) []profile.Vector {
	t.Helper()
	vecs := make([]profile.Vector, 6)
	for u := range vecs {
		entries := []profile.Entry{
			{Item: uint32(u), Weight: 1},
			{Item: uint32(u + 1), Weight: 1},
			{Item: 100, Weight: float32(u)},
		}
		v, err := profile.NewVector(entries)
		if err != nil {
			t.Fatal(err)
		}
		vecs[u] = v
	}
	return vecs
}

func TestScorerSerialMatchesParallel(t *testing.T) {
	vecs := testProfiles(t)
	lookup := func(u uint32) (profile.Vector, error) { return vecs[u], nil }
	var ts []tuples.Tuple
	for s := uint32(0); s < 6; s++ {
		for d := uint32(0); d < 6; d++ {
			if s != d {
				ts = append(ts, tuples.Tuple{S: s, D: d})
			}
		}
	}
	serial, err := (&Scorer{Sim: profile.Cosine{}, Workers: 1}).Score(ts, lookup)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		parallel, err := (&Scorer{Sim: profile.Cosine{}, Workers: workers}).Score(ts, lookup)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("workers=%d: results differ from serial", workers)
		}
	}
}

func TestScorerErrors(t *testing.T) {
	lookupErr := func(u uint32) (profile.Vector, error) { return profile.Vector{}, errors.New("missing") }
	ts := []tuples.Tuple{{S: 0, D: 1}}
	if _, err := (&Scorer{Sim: profile.Cosine{}}).Score(ts, lookupErr); err == nil {
		t.Error("lookup failure should propagate")
	}
	if _, err := (&Scorer{Sim: profile.Cosine{}, Workers: 4}).Score(ts, lookupErr); err == nil {
		t.Error("lookup failure should propagate in parallel mode")
	}
	if _, err := (&Scorer{}).Score(ts, nil); err == nil {
		t.Error("nil similarity should fail")
	}
	got, err := (&Scorer{Sim: profile.Cosine{}}).Score(nil, nil)
	if err != nil || got != nil {
		t.Error("empty tuple list should be a cheap no-op")
	}
}

// --- recall ---

func TestRecallHandComputed(t *testing.T) {
	exact, _ := graph.NewKNN(3, 2)
	exact.Set(0, []uint32{1, 2})
	exact.Set(1, []uint32{0, 2})
	// node 2 has empty exact list -> excluded from the mean

	approx, _ := graph.NewKNN(3, 2)
	approx.Set(0, []uint32{1, 2}) // 2/2
	approx.Set(1, []uint32{2})    // 1/2
	want := (1.0 + 0.5) / 2
	if got := Recall(approx, exact); got != want {
		t.Errorf("Recall = %v, want %v", got, want)
	}
}

func TestRecallPerfectAndEmpty(t *testing.T) {
	g, _ := graph.NewKNN(4, 2)
	g.Set(0, []uint32{1, 2})
	g.Set(3, []uint32{0})
	if got := Recall(g, g); got != 1 {
		t.Errorf("self recall = %v, want 1", got)
	}
	empty, _ := graph.NewKNN(4, 2)
	if got := Recall(empty, empty); got != 0 {
		t.Errorf("recall with no exact edges = %v, want 0", got)
	}
	if got := Recall(empty, g); got != 0 {
		t.Errorf("empty approx recall = %v, want 0", got)
	}
}

// runShard builds a tuple list sorted by (S, D) over users [0, n) whose
// source runs have the given lengths, cycling destinations.
func runShard(n int, runLengths []int) []tuples.Tuple {
	var ts []tuples.Tuple
	for s, length := range runLengths {
		for d := 0; d < length; d++ {
			ts = append(ts, tuples.Tuple{S: uint32(s % n), D: uint32((s + 1 + d) % n)})
		}
	}
	return ts
}

// TestScorerIsBitIdenticalAtEveryBatchShape: a score is a pure function
// of the two profiles. Whatever the measure, the worker count, and
// however the source runs fall against the fan-out chunks (one long run
// straddling every chunk boundary, runs of one, a run ending exactly on
// a boundary), Score returns the bits Sim.Score returns for the pair.
func TestScorerIsBitIdenticalAtEveryBatchShape(t *testing.T) {
	vecs := testProfiles(t)
	lookup := func(u uint32) (profile.Vector, error) { return vecs[u], nil }
	shards := map[string][]tuples.Tuple{
		"one long run":        runShard(len(vecs), []int{23}),
		"long run in middle":  runShard(len(vecs), []int{1, 2, 17, 1, 3}),
		"runs of one":         runShard(len(vecs), []int{1, 1, 1, 1, 1, 1, 1}),
		"run ends on a chunk": runShard(len(vecs), []int{4, 4, 4, 4}),
		"unsorted sources":    {{S: 3, D: 1}, {S: 0, D: 2}, {S: 3, D: 2}, {S: 3, D: 4}, {S: 1, D: 0}},
	}
	for _, sim := range []profile.Similarity{profile.Cosine{}, profile.Jaccard{}, profile.Dice{}, profile.Overlap{}} {
		for name, ts := range shards {
			for _, workers := range []int{1, 2, 4} {
				sc := &Scorer{Sim: sim, Workers: workers}
				for pass := 0; pass < 2; pass++ { // second pass reuses the scorer's buffers
					got, err := sc.Score(ts, lookup)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(ts) {
						t.Fatalf("%s/%s/workers=%d: %d scores for %d tuples", sim.Name(), name, workers, len(got), len(ts))
					}
					for i, tu := range ts {
						want := sim.Score(vecs[tu.S], vecs[tu.D])
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("%s/%s/workers=%d pass %d: tuple %d (%d,%d) scored %v, Sim.Score gives %v",
								sim.Name(), name, workers, pass, i, tu.S, tu.D, got[i], want)
						}
					}
				}
			}
		}
	}
}

// TestScorerSteadyStateAllocatesNothing pins the serial scorer at zero
// allocations per batch once its buffers have grown to the batch.
func TestScorerSteadyStateAllocatesNothing(t *testing.T) {
	vecs := testProfiles(t)
	lookup := func(u uint32) (profile.Vector, error) { return vecs[u], nil }
	ts := runShard(len(vecs), []int{5, 1, 9, 2, 6})
	sc := &Scorer{Sim: profile.Cosine{}, Workers: 1}
	if _, err := sc.Score(ts, lookup); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sc.Score(ts, lookup); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Scorer.Score allocates %v times per batch in steady state, want 0", allocs)
	}
}

// TestScorerResultIsValidUntilNextCall pins the ownership contract: the
// slice Score returns is the scorer's own buffer, intact until the next
// call and overwritten by it, so a caller that keeps scores across
// calls must copy them.
func TestScorerResultIsValidUntilNextCall(t *testing.T) {
	vecs := testProfiles(t)
	lookup := func(u uint32) (profile.Vector, error) { return vecs[u], nil }
	sc := &Scorer{Sim: profile.Cosine{}, Workers: 1}
	first, err := sc.Score([]tuples.Tuple{{S: 0, D: 1}, {S: 0, D: 2}}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]float64(nil), first...)
	for i, tu := range []tuples.Tuple{{S: 0, D: 1}, {S: 0, D: 2}} {
		if want := (profile.Cosine{}).Score(vecs[tu.S], vecs[tu.D]); first[i] != want || kept[i] != want {
			t.Fatalf("before the next call, score %d = %v, want %v", i, first[i], want)
		}
	}
	second, err := sc.Score([]tuples.Tuple{{S: 3, D: 4}}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	if &second[0] != &first[0] {
		t.Fatal("a second, smaller batch should reuse the scorer's buffer")
	}
	if want := (profile.Cosine{}).Score(vecs[3], vecs[4]); first[0] != want {
		t.Errorf("first[0] = %v after the next call, want the new batch's %v (the old slice is overwritten)", first[0], want)
	}
	if kept[0] == first[0] {
		t.Fatal("test needs the two batches to score differently")
	}
}

// TestNewTopKsAccumulatorsAreIndependent: accumulators carved from one
// backing array never write into a neighbour's window, and behave like
// separately built ones.
func TestNewTopKsAccumulatorsAreIndependent(t *testing.T) {
	if _, err := NewTopKs(3, 0); err == nil {
		t.Error("k=0 should fail")
	}
	accs, err := NewTopKs(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // far more pushes than fit
		accs[1].Push(uint32(i), float64(i))
	}
	if accs[0].Len() != 0 || accs[2].Len() != 0 {
		t.Fatalf("pushes into one accumulator leaked: lens %d, %d", accs[0].Len(), accs[2].Len())
	}
	if got := accs[1].IDs(); !reflect.DeepEqual(got, []uint32{9, 8}) {
		t.Errorf("IDs = %v, want [9 8]", got)
	}
}

// TestResetTopKsReusesWindows: ResetTopKs empties accumulators inside
// the windows they own, without allocating, while the slice has room
// for them; a larger count or another K allocates as NewTopKs does.
func TestResetTopKsReusesWindows(t *testing.T) {
	accs, err := NewTopKs(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range accs {
		accs[i].Push(uint32(i), 0.5)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if accs, err = ResetTopKs(accs[:2], 4, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ResetTopKs within capacity allocates %v times", allocs)
	}
	if len(accs) != 4 {
		t.Fatalf("%d accumulators, want 4", len(accs))
	}
	for i := range accs {
		if accs[i].Len() != 0 || accs[i].K() != 3 {
			t.Fatalf("accumulator %d: %d candidates, capacity %d after reset", i, accs[i].Len(), accs[i].K())
		}
	}
	for i := 0; i < 10; i++ { // far more pushes than fit
		accs[2].Push(uint32(i), float64(i))
	}
	if accs[1].Len() != 0 || accs[3].Len() != 0 {
		t.Fatalf("pushes into a reset accumulator leaked into a neighbour")
	}
	for _, c := range []struct{ n, k int }{{5, 3}, {2, 4}} {
		got, err := ResetTopKs(accs, c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.n || got[0].K() != c.k || got[0].Len() != 0 {
			t.Errorf("ResetTopKs(n=%d, k=%d) gave %d accumulators of capacity %d", c.n, c.k, len(got), got[0].K())
		}
	}
	if _, err := ResetTopKs(accs, 2, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestTopKDecodeReusesStorageAndChecksK: Decode fills an existing
// accumulator in place and refuses bytes written under another K.
func TestTopKDecodeReusesStorageAndChecksK(t *testing.T) {
	src, _ := NewTopK(4)
	src.Push(7, 0.5)
	src.Push(8, 0.9)
	enc := append(src.AppendBinary(nil), 0xAB) // one trailing byte

	accs, err := NewTopKs(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	accs[0].Push(1, 1) // stale content Decode must replace
	rest, err := accs[0].Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != 0xAB {
		t.Errorf("rest = %v, want the trailing byte", rest)
	}
	if got := accs[0].IDs(); !reflect.DeepEqual(got, []uint32{8, 7}) {
		t.Errorf("decoded IDs = %v, want [8 7]", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { accs[0].Decode(enc) }); allocs != 0 {
		t.Errorf("Decode into an accumulator allocates %v times", allocs)
	}
	other, _ := NewTopK(5)
	if _, err := other.Decode(enc); err == nil {
		t.Error("an accumulator of K=5 accepted bytes written under K=4")
	}
	if k, n, rest, err := SkipTopK(enc); err != nil || k != 4 || n != 2 || len(rest) != 1 {
		t.Errorf("SkipTopK = k %d n %d rest %d err %v", k, n, len(rest), err)
	}
}
