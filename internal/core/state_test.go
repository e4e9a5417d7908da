package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"os"
	"slices"
	"sync"
	"testing"

	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/partition"
	"knnpc/internal/profile"
)

// newTestPartState builds a partState by hand for owner- and
// codec-level tests: the given profile per member, empty accumulators
// of capacity k. accs[i] belongs to the i-th smallest member id.
func newTestPartState(t testing.TB, id uint32, k int, profiles map[uint32]profile.Vector) *partState {
	t.Helper()
	st := &partState{id: id}
	for u := range profiles {
		st.members = append(st.members, u)
	}
	slices.Sort(st.members)
	for _, u := range st.members {
		st.profiles.Append(profiles[u])
	}
	var err error
	if st.accs, err = knn.NewTopKs(len(st.members), k); err != nil {
		t.Fatal(err)
	}
	return st
}

// unitProfiles gives each member the one-item profile {member+1: 1}.
func unitProfiles(members ...uint32) map[uint32]profile.Vector {
	out := make(map[uint32]profile.Vector, len(members))
	for _, u := range members {
		out[u] = profile.FromItems([]uint32{u + 1})
	}
	return out
}

// goldenK is the accumulator capacity of the golden partition.
const goldenK = 3

// goldenPartState rebuilds, through today's types, the partition that
// testdata/partstate_v1.bin and testdata/partial_v1.bin were written
// from by the map-based encoder this layout replaced.
func goldenPartState(t testing.TB) *partState {
	t.Helper()
	mixed, err := profile.NewVector([]profile.Entry{{Item: 0, Weight: 1.5}, {Item: 7, Weight: -2}, {Item: 0xFFFFFFFF, Weight: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	zeroWeight, err := profile.NewVector([]profile.Entry{{Item: 7, Weight: 0}, {Item: 8, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	st := newTestPartState(t, 3, goldenK, map[uint32]profile.Vector{
		4:  mixed,
		9:  {},
		17: profile.FromItems([]uint32{1, 2, 3, 500}),
		40: zeroWeight,
	})
	st.accs[0].Push(9, 0.5) // member 4: one more push than fits
	st.accs[0].Push(17, 0.75)
	st.accs[0].Push(40, 0.25)
	st.accs[0].Push(41, 0.6)
	st.accs[2].Push(4, 0.125) // member 17
	st.accs[3].Push(9, 0)     // member 40
	st.accs[3].Push(4, -0.5)
	return st
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// candidates returns an accumulator's contents in an order that does
// not depend on its heap layout, scores as bits so NaN compares equal
// to itself.
func candidates(tk *knn.TopK) [][2]uint64 {
	var out [][2]uint64
	for _, s := range tk.Result() {
		out = append(out, [2]uint64{uint64(s.ID), math.Float64bits(s.Score)})
	}
	slices.SortFunc(out, func(a, b [2]uint64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}

// requireSameState fails unless a and b hold the same members, profiles
// and accumulator contents. Profiles compare by their encodings: the
// codec carries weights bit for bit, NaN included, which value equality
// would call different.
func requireSameState(t testing.TB, a, b *partState) {
	t.Helper()
	if a.id != b.id || !slices.Equal(a.members, b.members) {
		t.Fatalf("states differ: id %d members %v vs id %d members %v", a.id, a.members, b.id, b.members)
	}
	for i, u := range a.members {
		if !bytes.Equal(a.profiles.At(i).AppendBinary(nil), b.profiles.At(i).AppendBinary(nil)) {
			t.Fatalf("member %d: profiles differ", u)
		}
		if a.accs[i].K() != b.accs[i].K() || !slices.Equal(candidates(&a.accs[i]), candidates(&b.accs[i])) {
			t.Fatalf("member %d: accumulators differ", u)
		}
	}
}

// TestPartStateCodecMatchesGolden: the flat state writes exactly the
// bytes the map-based state wrote, and reads them back.
func TestPartStateCodecMatchesGolden(t *testing.T) {
	st := goldenPartState(t)
	golden := readGolden(t, "partstate_v1.bin")
	if got := st.encode(); !bytes.Equal(got, golden) {
		t.Fatalf("encode differs from testdata/partstate_v1.bin:\n got %x\nwant %x", got, golden)
	}
	if st.byteSize() != len(golden) {
		t.Fatalf("byteSize = %d, encoded length %d", st.byteSize(), len(golden))
	}
	back, err := decodePartState(golden, goldenK, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, st, back)
	if got := back.encode(); !bytes.Equal(got, golden) {
		t.Fatalf("decode∘encode is not the identity:\n got %x\nwant %x", got, golden)
	}
	for i := range back.members {
		if got, want := back.profiles.At(i).Norm(), st.profiles.At(i).Norm(); got != want {
			t.Errorf("member %d: decoded norm %v, built norm %v", back.members[i], got, want)
		}
	}

	goldenPartial := readGolden(t, "partial_v1.bin")
	if got := st.encodePartial(); !bytes.Equal(got, goldenPartial) {
		t.Fatalf("encodePartial differs from testdata/partial_v1.bin:\n got %x\nwant %x", got, goldenPartial)
	}
	fresh := goldenPartState(t)
	for i := range fresh.accs {
		fresh.accs[i] = *mustTopK(t, goldenK)
	}
	if err := fresh.mergePartial(goldenPartial); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, st, fresh)
}

func mustTopK(t testing.TB, k int) *knn.TopK {
	t.Helper()
	tk, err := knn.NewTopK(k)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// le32 concatenates little-endian uint32s.
func le32(vs ...uint32) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// TestDecodePartStateRejectsHostileBlobs: counts are checked against
// the bytes present before anything is sized from them, member ids must
// ascend, and every accumulator must have the engine's K.
func TestDecodePartStateRejectsHostileBlobs(t *testing.T) {
	member := func(u, k uint32) []byte { return le32(u, 0 /* empty vector */, k, 0 /* no candidates */) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, blob := range map[string][]byte{
		"member count with no bytes behind it": le32(1, 0xFFFFFFFF),
		"member count one too many":            cat(le32(1, 3), member(1, 3), member(2, 3)),
		"duplicate member id":                  cat(le32(1, 2), member(5, 3), member(5, 3)),
		"descending member ids":                cat(le32(1, 2), member(6, 3), member(5, 3)),
		"k differs between members":            cat(le32(1, 2), member(5, 3), member(6, 4)),
		"k is not the engine's":                cat(le32(1, 1), member(5, 4)),
		"k is zero":                            cat(le32(1, 1), member(5, 0)),
		"more candidates than k":               cat(le32(1, 1), le32(5, 0, 3, 4), make([]byte, 48)),
		"candidate count with no bytes":        cat(le32(1, 1), le32(5, 0, 0xFFFFFFFF, 0xFFFFFFFF)),
		"vector count with no bytes":           cat(le32(1, 1), le32(5, 0xFFFFFFFF, 3, 0)),
	} {
		if _, err := decodePartState(blob, 3, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if st, err := decodePartState(cat(le32(1, 2), member(5, 3), member(6, 3)), 3, nil); err != nil || len(st.members) != 2 {
		t.Errorf("well-formed twin of the hostile blobs rejected: %v", err)
	}
}

// TestMergePartialRejectsHostileBlobs is the same for worker partials.
func TestMergePartialRejectsHostileBlobs(t *testing.T) {
	entry := func(u, k uint32) []byte { return le32(u, k, 0) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, blob := range map[string][]byte{
		"member count with no bytes behind it": le32(0xFFFFFFFF),
		"duplicate member id":                  cat(le32(2), entry(10, 4), entry(10, 4)),
		"descending member ids":                cat(le32(2), entry(11, 4), entry(10, 4)),
		"k is not the state's":                 cat(le32(1), entry(10, 5)),
		"candidate count with no bytes":        cat(le32(1), le32(10, 4, 4)),
	} {
		st := newTestPartState(t, 3, 4, unitProfiles(10, 11, 12))
		if err := st.mergePartial(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	st := newTestPartState(t, 3, 4, unitProfiles(10, 11, 12))
	if err := st.mergePartial(cat(le32(2), entry(10, 4), entry(12, 4))); err != nil {
		t.Errorf("well-formed twin of the hostile partials rejected: %v", err)
	}
}

// TestDecodePartStateAllocationsAreConstant: a state is decoded into a
// fixed number of arrays, however many members it has.
func TestDecodePartStateAllocationsAreConstant(t *testing.T) {
	allocs := func(members int) float64 {
		profiles := make(map[uint32]profile.Vector, members)
		for u := 0; u < members; u++ {
			profiles[uint32(u)] = profile.FromItems([]uint32{uint32(u), uint32(u) + 7, uint32(u) + 90})
		}
		st := newTestPartState(t, 0, 8, profiles)
		for i := range st.accs {
			st.accs[i].Push(uint32(i)+1, 0.5)
		}
		blob := st.encode()
		return testing.AllocsPerRun(20, func() {
			if _, err := decodePartState(blob, 8, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(400)
	if small != large {
		t.Errorf("decodePartState allocates %v times for 4 members, %v for 400", small, large)
	}
	if large > 16 { // 8 arrays; the race detector's build adds a few temporaries
		t.Errorf("decodePartState allocates %v times, want a handful", large)
	}
}

// TestDecodePartStateIntoReleasedStateAllocatesNothing: decoding or
// building into a released state at least as large as the new one
// reuses its members, arena and accumulator arrays — a decode allocates
// nothing, a build only the list of member profiles it sizes the arena
// from — and gives exactly the state a fresh decode or build gives.
func TestDecodePartStateIntoReleasedStateAllocatesNothing(t *testing.T) {
	const k = 8
	state := func(members int) *partState {
		profiles := make(map[uint32]profile.Vector, members)
		for u := 0; u < members; u++ {
			profiles[uint32(u)] = profile.FromItems([]uint32{uint32(u), uint32(u) + 7, uint32(u) + 90})
		}
		st := newTestPartState(t, 0, k, profiles)
		for i := range st.accs {
			for c := range k + 2 {
				st.accs[i].Push(uint32(i+c)+1, float64(c%5))
			}
		}
		return st
	}
	blob := state(300).encode()
	into, err := decodePartState(state(400).encode(), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodePartState(blob, k, into); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding into a released state allocates %v times, want 0", allocs)
	}
	fresh, err := decodePartState(blob, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, fresh, into)
	if !bytes.Equal(into.encode(), blob) {
		t.Fatal("state decoded into a released one re-encodes differently")
	}

	vecs := make([]profile.Vector, 300)
	for u := range vecs {
		vecs[u] = fresh.profiles.At(u)
	}
	profiles := memCanonical{profile.NewStoreFromVectors(vecs)}
	part := &partition.Data{ID: 5, Members: fresh.members}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := newPartState(part, profiles, k, into); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("building into a released state allocates %v times, want only the list of member profiles it sizes the arena from", allocs)
	}
	built, err := newPartState(part, profiles, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, built, into)
}

// TestPartStoreFreeListConcurrent: goroutines that take, fill and give
// back states at once — as cursors, prefetches, write-backs and the
// build pool do — are never handed the same state, and the list
// allocates no more states than were ever held at once.
func TestPartStoreFreeListConcurrent(t *testing.T) {
	const holders, rounds = 8, 200
	blob := goldenPartState(t).encode()
	var (
		list   stateFreeList
		wg     sync.WaitGroup
		heldMu sync.Mutex
		held   = make(map[*partState]bool)
	)
	for h := range holders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				st, err := decodePartState(blob, goldenK, list.take())
				if err != nil {
					t.Error(err)
					return
				}
				heldMu.Lock()
				twice := held[st]
				held[st] = true
				heldMu.Unlock()
				if twice {
					t.Errorf("holder %d was handed a state another holder still held", h)
				}
				st.accs[0].Push(uint32(100+h), 0.5)
				heldMu.Lock()
				delete(held, st)
				heldMu.Unlock()
				list.give(st)
			}
		}()
	}
	wg.Wait()
	if n := list.allocated(); n < 1 || n > holders {
		t.Errorf("%d states allocated by %d concurrent holders", n, holders)
	}
}

// TestEmitRowsAllocatesNoRow: emitting a partition writes each
// member's accumulator, sorted by id, as its G(t+1) row with the
// scores beside the ids, into the slabs of a graph NewScoredKNN made:
// the graph's four allocations (itself, its row table, the id slab and
// the score slab) and the partition's two row buffers are all it
// costs, however many rows.
func TestEmitRowsAllocatesNoRow(t *testing.T) {
	const members, k = 64, 8
	ids := make([]uint32, members)
	for u := range ids {
		ids[u] = uint32(u)
	}
	st := newTestPartState(t, 0, k, unitProfiles(ids...))
	for i := range st.accs {
		for c := 0; c < 2*k; c++ { // more candidates than K: the heap has to pick
			st.accs[i].Push(uint32(members+(i*7+c*13)%200), float64((i+c)%11))
		}
	}
	var next *graph.KNN
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if next, err = graph.NewScoredKNN(members+200, k); err != nil {
			t.Fatal(err)
		}
		if err := st.emitRows(next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("emitting %d rows allocates %v times, want at most 6", members, allocs)
	}
	for i, u := range st.members {
		want := st.accs[i].Result()
		slices.SortFunc(want, func(a, b knn.Scored) int { return cmp.Compare(a.ID, b.ID) })
		got, scores := next.Neighbors(u), next.Scores(u)
		if len(got) != len(want) || len(scores) != len(want) {
			t.Fatalf("member %d row %v %v, want %v", u, got, scores, want)
		}
		for j, w := range want {
			if got[j] != w.ID || scores[j] != w.Score {
				t.Fatalf("member %d row %v %v, want %v", u, got, scores, want)
			}
		}
	}
	if err := st.emitRows(next); err == nil {
		t.Error("a second emit of the same rows was accepted")
	}
}

// FuzzDecodePartState: arbitrary bytes never panic the decoder, an
// accepted blob holds no more members or profile entries than its
// length can carry (storage is sized from those counts), and what it
// decodes to survives encode → decode unchanged. Decoding into a dirty
// released state — the golden decoded and then pushed into, or one
// with more members than any input — accepts and refuses exactly what
// a fresh decode does, never panics, and accepts to the same state.
func FuzzDecodePartState(f *testing.F) {
	golden := readGolden(f, "partstate_v1.bin")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(le32(1, 0xFFFFFFFF))
	wide := make([]uint32, 64)
	for i := range wide {
		wide[i] = uint32(3 * i)
	}
	dirtyStates := func(t *testing.T) []*partState {
		pushed, err := decodePartState(golden, goldenK, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pushed.accs {
			pushed.accs[i].Push(1000+uint32(i), 0.875)
		}
		large := newTestPartState(t, 9, goldenK, unitProfiles(wide...))
		for i := range large.accs {
			large.accs[i].Push(uint32(i), 0.5)
		}
		return []*partState{pushed, large}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodePartState(data, goldenK, nil)
		for _, dirty := range dirtyStates(t) {
			into, intoErr := decodePartState(data, goldenK, dirty)
			if (err == nil) != (intoErr == nil) {
				t.Fatalf("fresh decode returned %v, decode into a released state %v", err, intoErr)
			}
			if err == nil {
				requireSameState(t, st, into)
			}
		}
		if err != nil {
			return
		}
		if st.byteSize() != len(data) {
			t.Fatalf("accepted %d bytes as a state of %d", len(data), st.byteSize())
		}
		again, err := decodePartState(st.encode(), goldenK, nil)
		if err != nil {
			t.Fatalf("re-encoded state rejected: %v", err)
		}
		requireSameState(t, st, again)
	})
}

// FuzzMergePartial: arbitrary bytes never panic the merge, and what an
// accepted partial merged to survives encodePartial → mergePartial
// unchanged.
func FuzzMergePartial(f *testing.F) {
	golden := readGolden(f, "partial_v1.bin")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(le32(0xFFFFFFFF))
	base := readGolden(f, "partstate_v1.bin")
	fresh := func(t *testing.T) *partState {
		st, err := decodePartState(base, goldenK, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range st.accs {
			st.accs[i] = *mustTopK(t, goldenK)
		}
		return st
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fresh(t)
		if err := st.mergePartial(data); err != nil {
			return
		}
		again := fresh(t)
		if err := again.mergePartial(st.encodePartial()); err != nil {
			t.Fatalf("re-encoded partial rejected: %v", err)
		}
		requireSameState(t, st, again)
	})
}
