package netstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestReadFrameBoundsAllocation: a length prefix claiming 200 MiB with
// 10 bytes behind it is a torn frame, found after allocating one chunk
// — a peer or a corrupt file cannot make the reader hold memory it
// never sends — and a frame several chunks long still reads back whole.
func TestReadFrameBoundsAllocation(t *testing.T) {
	torn := append(binary.BigEndian.AppendUint32(nil, 200<<20), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(torn))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn 200 MiB frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("a torn 200 MiB frame allocated %d bytes, want under 2 MiB", alloc)
	}

	big := make([]byte, 3*frameChunk+5)
	for i := range big {
		big[i] = byte(i % 251)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	if got, err := readFrame(&buf); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("a %d-byte frame read back as %d bytes, %v", len(big), len(got), err)
	}
}
