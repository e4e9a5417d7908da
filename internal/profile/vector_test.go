package profile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustVector(t *testing.T, entries ...Entry) Vector {
	t.Helper()
	v, err := NewVector(entries)
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	return v
}

func TestNewVectorSortsAndValidates(t *testing.T) {
	v := mustVector(t, Entry{Item: 5, Weight: 2}, Entry{Item: 1, Weight: 3})
	want := []Entry{{Item: 1, Weight: 3}, {Item: 5, Weight: 2}}
	if !reflect.DeepEqual(v.Entries(), want) {
		t.Errorf("Entries = %v, want %v", v.Entries(), want)
	}
	if _, err := NewVector([]Entry{{Item: 1}, {Item: 1}}); err == nil {
		t.Error("duplicate items should be rejected")
	}
	empty, err := NewVector(nil)
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty vector: err=%v len=%d", err, empty.Len())
	}
}

func TestFromItemsCollapsesDuplicates(t *testing.T) {
	v := FromItems([]uint32{3, 1, 3, 2, 1})
	want := []Entry{{Item: 1, Weight: 1}, {Item: 2, Weight: 1}, {Item: 3, Weight: 1}}
	if !reflect.DeepEqual(v.Entries(), want) {
		t.Errorf("FromItems = %v, want %v", v.Entries(), want)
	}
	if FromItems(nil).Len() != 0 {
		t.Error("FromItems(nil) should be empty")
	}
}

func TestWeightLookup(t *testing.T) {
	v := mustVector(t, Entry{Item: 2, Weight: 1.5}, Entry{Item: 7, Weight: -2})
	if w, ok := v.Weight(7); !ok || w != -2 {
		t.Errorf("Weight(7) = %v,%v", w, ok)
	}
	if _, ok := v.Weight(3); ok {
		t.Error("Weight(3) should be absent")
	}
}

func TestDotAndNormHandComputed(t *testing.T) {
	a := mustVector(t, Entry{1, 1}, Entry{2, 2}, Entry{4, 3})
	b := mustVector(t, Entry{2, 5}, Entry{3, 9}, Entry{4, 1})
	if got := a.Dot(b); got != 2*5+3*1 {
		t.Errorf("Dot = %v, want 13", got)
	}
	if got := a.Norm(); math.Abs(got-math.Sqrt(14)) > 1e-12 {
		t.Errorf("Norm = %v, want sqrt(14)", got)
	}
	if got := a.IntersectionSize(b); got != 2 {
		t.Errorf("IntersectionSize = %d, want 2", got)
	}
}

func TestWithItemInsertUpdate(t *testing.T) {
	v := mustVector(t, Entry{2, 1}, Entry{5, 1})
	ins := v.WithItem(3, 9)
	want := []Entry{{2, 1}, {3, 9}, {5, 1}}
	if !reflect.DeepEqual(ins.Entries(), want) {
		t.Errorf("insert: %v, want %v", ins.Entries(), want)
	}
	upd := v.WithItem(5, 7)
	want = []Entry{{2, 1}, {5, 7}}
	if !reflect.DeepEqual(upd.Entries(), want) {
		t.Errorf("update: %v, want %v", upd.Entries(), want)
	}
	// original untouched (immutability)
	if w, _ := v.Weight(5); w != 1 {
		t.Error("WithItem must not mutate the receiver")
	}
}

func TestWithoutItem(t *testing.T) {
	v := mustVector(t, Entry{2, 1}, Entry{5, 1})
	got := v.WithoutItem(2)
	if !reflect.DeepEqual(got.Entries(), []Entry{{5, 1}}) {
		t.Errorf("WithoutItem(2) = %v", got.Entries())
	}
	same := v.WithoutItem(99)
	if !same.Equal(v) {
		t.Error("removing an absent item should be a no-op")
	}
}

func TestVectorEqual(t *testing.T) {
	a := mustVector(t, Entry{1, 2})
	b := mustVector(t, Entry{1, 2})
	c := mustVector(t, Entry{1, 3})
	d := mustVector(t, Entry{2, 2})
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) || a.Equal(Vector{}) {
		t.Error("Equal gave wrong answers")
	}
}

func randomVector(r *rand.Rand, maxItems, itemSpace int) Vector {
	n := r.Intn(maxItems)
	entries := make([]Entry, 0, n)
	seen := make(map[uint32]bool)
	for len(entries) < n {
		it := uint32(r.Intn(itemSpace))
		if seen[it] {
			continue
		}
		seen[it] = true
		entries = append(entries, Entry{Item: it, Weight: r.Float32()*4 - 1})
	}
	v, err := NewVector(entries)
	if err != nil {
		panic(err)
	}
	return v
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVector(r, 20, 40), randomVector(r, 20, 40)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVector(r, 30, 100)
		buf := v.AppendBinary([]byte("prefix")[6:]) // empty but non-nil
		got, rest, err := DecodeVector(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		if v.ByteSize() != len(buf) {
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeVectorErrors(t *testing.T) {
	v := mustVector(t, Entry{1, 1}, Entry{2, 2})
	buf := v.AppendBinary(nil)

	t.Run("short header", func(t *testing.T) {
		if _, _, err := DecodeVector(buf[:2]); err == nil {
			t.Error("short header should fail")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, _, err := DecodeVector(buf[:len(buf)-1]); err == nil {
			t.Error("truncated payload should fail")
		}
	})
	t.Run("non increasing items", func(t *testing.T) {
		bad := append([]byte(nil), buf...)
		// overwrite second item id (offset 4+8 = 12) with the first item id
		copy(bad[12:16], bad[4:8])
		if _, _, err := DecodeVector(bad); err == nil {
			t.Error("non-increasing items should fail")
		}
	})
}

func TestDecodeVectorConsumesPrefixOnly(t *testing.T) {
	a := mustVector(t, Entry{1, 1})
	b := mustVector(t, Entry{9, 9})
	buf := b.AppendBinary(a.AppendBinary(nil))
	gotA, rest, err := DecodeVector(buf)
	if err != nil || !gotA.Equal(a) {
		t.Fatalf("first decode: %v err=%v", gotA.Entries(), err)
	}
	gotB, rest, err := DecodeVector(rest)
	if err != nil || !gotB.Equal(b) || len(rest) != 0 {
		t.Fatalf("second decode: %v rest=%d err=%v", gotB.Entries(), len(rest), err)
	}
}

// TestArenaHoldsVectorsBackToBack: vectors appended or decoded into an
// arena come back equal with their norms, a failed decode leaves it
// unchanged, and after Grow — or a Reset of an arena that held as much —
// filling it allocates nothing.
func TestArenaHoldsVectorsBackToBack(t *testing.T) {
	vecs := []Vector{
		mustVector(t, Entry{Item: 1, Weight: 2}, Entry{Item: 9, Weight: -1}),
		{},
		FromItems([]uint32{4, 5, 6}),
	}
	encoded := append(vecs[2].AppendBinary(nil), 0xCD) // one trailing byte
	var a Arena
	allocs := testing.AllocsPerRun(5, func() {
		a.Reset()
		a.Grow(len(vecs), 5)
		a.Append(vecs[0])
		a.Append(vecs[1])
		if rest, err := a.Decode(encoded); err != nil || len(rest) != 1 {
			t.Fatalf("Decode: rest %v, err %v", rest, err)
		}
	})
	if allocs != 0 {
		t.Errorf("refilling a grown arena allocates %v times", allocs)
	}

	unordered := FromItems([]uint32{7, 8}).AppendBinary(nil)
	copy(unordered[4:8], unordered[12:16]) // both items now 8
	if n, _, err := SkipVector(unordered); err != nil || n != 2 {
		t.Errorf("SkipVector = %d entries, err %v: the framing is sound, only the order is not", n, err)
	}
	if _, err := a.Decode(unordered); err == nil {
		t.Error("unordered items decoded")
	}
	if _, err := a.Decode(encoded[:7]); err == nil {
		t.Error("truncated vector decoded")
	}
	if len(a.ends) != len(vecs) {
		t.Fatalf("%d vectors after failed decodes, want %d", len(a.ends), len(vecs))
	}
	for i, want := range vecs {
		if got := a.At(i); !got.Equal(want) || got.Norm() != want.Norm() {
			t.Errorf("At(%d) = %v norm %v, want %v norm %v", i, got.Entries(), got.Norm(), want.Entries(), want.Norm())
		}
	}
}
