package netstore

import (
	"bytes"
	"runtime"
	"testing"
)

// allocBound is the most a decoder may allocate for n input bytes: a
// small multiple of what it was handed, plus slack for the runtime.
func allocBound(n int) uint64 { return 8*uint64(n) + 64<<10 }

// requireBoundedAlloc runs decode and fails when it allocated more than
// allocBound(len(data)).
func requireBoundedAlloc(t *testing.T, data []byte, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBound(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), alloc, allocBound(len(data)))
	}
}

// FuzzDecodeView: arbitrary bytes never panic the serve-view decoder,
// never make it allocate beyond a multiple of their length (a claimed
// member or neighbor count is checked against the bytes behind it), and
// a view it accepts re-encodes to exactly the same bytes.
func FuzzDecodeView(f *testing.F) {
	f.Add(viewFor(7, 3))
	f.Add(EncodeView(nil))
	f.Add(EncodeView([]ViewEntry{{User: 1}, {User: 2, Neighbors: []uint32{1}, Profile: []byte{9, 9}}}))
	f.Add(viewFor(7, 3)[:9])
	f.Add(appendU32(nil, 0xFFFFFFFF))
	f.Add(appendU32(appendU32(appendU32(nil, 1), 5), 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []ViewEntry
		var err error
		requireBoundedAlloc(t, data, func() { entries, err = DecodeView(data) })
		if err != nil {
			return
		}
		if again := EncodeView(entries); !bytes.Equal(again, data) {
			t.Fatalf("accepted view re-encodes to %x, was %x", again, data)
		}
	})
}

// FuzzDecodeShipFrame: arbitrary WATCH stream frames never panic the
// replica's parse (frame, then the view it carries), never make it
// allocate beyond a multiple of their length, and a frame it accepts
// goes back on the wire byte for byte.
func FuzzDecodeShipFrame(f *testing.F) {
	view := viewFor(7, 3)
	f.Add(append(shipHeader(shipped{partition: 2, epoch: 9}), view...))
	f.Add(shipHeader(shipped{partition: 0, epoch: 1}))
	f.Add([]byte{statusOK})
	f.Add([]byte{statusOK, 0})
	f.Add(append([]byte{statusErr}, "read-only"...))
	f.Add([]byte{statusPart, 0, 0})
	f.Add(append(shipHeader(shipped{}), appendU32(nil, 0xFFFFFFFF)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v shipped
		var heartbeat bool
		var err error
		requireBoundedAlloc(t, data, func() {
			v, heartbeat, err = decodeShipFrame(data)
			if err == nil && !heartbeat {
				_, err = newServeView(v.epoch, v.blob)
			}
		})
		if err != nil {
			return
		}
		parts := [][]byte{{statusOK}}
		if !heartbeat {
			parts = [][]byte{shipHeader(v), v.blob}
		}
		var wire bytes.Buffer
		if err := writeFrame(&wire, parts...); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(&wire)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("accepted frame %x went back on the wire as %x (%v)", data, got, err)
		}
	})
}
