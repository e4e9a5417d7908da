package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"os"
	"slices"
	"testing"

	"knnpc/internal/knn"
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
// and accumulator contents.
func requireSameState(t testing.TB, a, b *partState) {
	t.Helper()
	if a.id != b.id || !slices.Equal(a.members, b.members) {
		t.Fatalf("states differ: id %d members %v vs id %d members %v", a.id, a.members, b.id, b.members)
	}
	for i, u := range a.members {
		if !a.profiles.At(i).Equal(b.profiles.At(i)) {
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
	back, err := decodePartState(golden, goldenK)
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
		if _, err := decodePartState(blob, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if st, err := decodePartState(cat(le32(1, 2), member(5, 3), member(6, 3)), 3); err != nil || len(st.members) != 2 {
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
			if _, err := decodePartState(blob, 8); err != nil {
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

// FuzzDecodePartState: arbitrary bytes never panic the decoder, an
// accepted blob holds no more members or profile entries than its
// length can carry (storage is sized from those counts), and what it
// decodes to survives encode → decode unchanged.
func FuzzDecodePartState(f *testing.F) {
	golden := readGolden(f, "partstate_v1.bin")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(le32(1, 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodePartState(data, goldenK)
		if err != nil {
			return
		}
		if st.byteSize() != len(data) {
			t.Fatalf("accepted %d bytes as a state of %d", len(data), st.byteSize())
		}
		again, err := decodePartState(st.encode(), goldenK)
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
		st, err := decodePartState(base, goldenK)
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
