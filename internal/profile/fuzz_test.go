package profile

import (
	"bytes"
	"encoding/binary"
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
