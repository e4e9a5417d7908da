package profile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// FuzzDecodeVector: arbitrary bytes never panic DecodeVector — the
// decoder remote ADDUSER profiles pass through before they reach the
// delta inserter — never make it allocate beyond a multiple of their
// length (the entry count is checked against the bytes behind it), and
// a vector it accepts has strictly increasing items and re-encodes to
// exactly the bytes it consumed.
func FuzzDecodeVector(f *testing.F) {
	v, err := NewVector([]Entry{{Item: 3, Weight: 1.5}, {Item: 9, Weight: -2}, {Item: 1 << 31, Weight: 0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v.AppendBinary(nil))
	f.Add(v.AppendBinary([]byte{}))
	f.Add(append(v.AppendBinary(nil), 7, 7))
	f.Add(Vector{}.AppendBinary(nil))
	f.Add(v.AppendBinary(nil)[:11])
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 2), 5), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, rest, err := DecodeVector(data)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+64<<10; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		items := got.items
		for i := 1; i < len(items); i++ {
			if items[i] <= items[i-1] {
				t.Fatalf("decoded items not strictly increasing at %d: %v", i, items)
			}
		}
		consumed := data[:len(data)-len(rest)]
		if enc := got.AppendBinary(nil); !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, consumed)
		}
	})
}

// FuzzArenaDecode: arbitrary bytes never panic Arena.Decode — the
// decoder every partition state's profiles go through — never make it
// allocate beyond a multiple of their length, an accepted vector
// re-encodes to exactly the bytes it consumed while the vectors already
// held stay as they were, and a rejected one leaves the arena unchanged.
func FuzzArenaDecode(f *testing.F) {
	v, err := NewVector([]Entry{{Item: 3, Weight: 1.5}, {Item: 9, Weight: -2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v.AppendBinary(nil))
	f.Add(append(v.AppendBinary(nil), 1, 2, 3))
	f.Add(Vector{}.AppendBinary(nil))
	f.Add(v.AppendBinary(nil)[:9])
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 2), 5), 0), 5), 0))
	held, err := NewVector([]Entry{{Item: 1, Weight: 2}, {Item: 4, Weight: 0.5}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Arena
		a.Append(held)
		before := arenaDump(&a)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rest, err := a.Decode(data)
		runtime.ReadMemStats(&m1)
		if alloc, bound := m1.TotalAlloc-m0.TotalAlloc, 8*uint64(len(data))+64<<10; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), alloc, bound)
		}
		if err != nil {
			if after := arenaDump(&a); after != before {
				t.Fatalf("rejected decode changed the arena:\n got %s\nwant %s", after, before)
			}
			return
		}
		if len(a.ends) != 2 || vectorDump(a.At(0)) != vectorDump(held) {
			t.Fatalf("accepted decode disturbed the vector already held: %s", arenaDump(&a))
		}
		consumed := data[:len(data)-len(rest)]
		if enc := a.At(1).AppendBinary(nil); !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, consumed)
		}
	})
}

// vectorDump renders a vector's encoding and the bits of its norm.
func vectorDump(v Vector) string {
	return fmt.Sprintf("%x/%x", v.AppendBinary(nil), math.Float64bits(v.norm))
}

// arenaDump renders everything an arena holds.
func arenaDump(a *Arena) string {
	out := fmt.Sprintf("%d items, %d weights, %d norms", len(a.items), len(a.weights), len(a.norms))
	for i := range a.ends {
		out += " " + vectorDump(a.At(i))
	}
	return out
}
