package knn

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// FuzzDecodeTopK: arbitrary bytes never panic TopK.Decode, never make it
// allocate beyond a multiple of their length (an accumulator decodes
// into the storage its capacity sized, and a count above that capacity
// is refused), and an accumulator it accepts re-encodes to exactly the
// bytes it consumed.
func FuzzDecodeTopK(f *testing.F) {
	const k = 4
	held, err := NewTopK(k)
	if err != nil {
		f.Fatal(err)
	}
	for id, score := range []float64{0.5, 0.25, 0.75, 0.125, 0.9} {
		held.Push(uint32(id), score)
	}
	enc := held.AppendBinary(nil)
	f.Add(enc)
	f.Add(append(enc, 7, 7))
	f.Add(enc[:len(enc)-3])
	f.Add(enc[:8])
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, k), 0xFFFFFFFF))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, k+1), 0))
	// Two candidates best first: the reverse of the heap order.
	swapped := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, k), 2)
	for id, score := range []float64{0.75, 0.25} {
		swapped = binary.LittleEndian.AppendUint32(swapped, uint32(id))
		swapped = binary.LittleEndian.AppendUint64(swapped, math.Float64bits(score))
	}
	f.Add(swapped)
	f.Fuzz(func(t *testing.T, data []byte) {
		acc, err := NewTopK(k)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rest, err := acc.Decode(data)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+64<<10; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if again := acc.AppendBinary(nil); !bytes.Equal(again, consumed) {
			t.Fatalf("accepted accumulator re-encodes to %x, was %x", again, consumed)
		}
	})
}
