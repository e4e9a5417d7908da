package netstore

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"knnpc/internal/api"
	"knnpc/internal/profile"
)

// allocBound is the most a decoder may allocate for n input bytes: a
// small multiple of what it was handed, plus slack for the runtime.
func allocBound(n int) uint64 { return 8*uint64(n) + 64<<10 }

// requireBoundedAlloc runs decode and fails when it allocated more than
// allocBound(len(data)).
func requireBoundedAlloc(t *testing.T, data []byte, decode func()) {
	t.Helper()
	requireAllocWithin(t, len(data), allocBound(len(data)), decode)
}

// requireAllocWithin runs decode over n input bytes and fails when it
// allocated more than bound.
func requireAllocWithin(t *testing.T, n int, bound uint64, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Fatalf("decoding %d bytes allocated %d, want at most %d", n, alloc, bound)
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

// FuzzDecodeUpdates: arbitrary PUSHUPD bodies never panic the update
// decoder, never make it allocate beyond a multiple of their length (the
// claimed count is checked against the 13-byte records behind it), and
// a batch it accepts re-encodes to exactly the same bytes.
func FuzzDecodeUpdates(f *testing.F) {
	f.Add(EncodeUpdates([]profile.Update{
		{User: 3, Kind: profile.SetItem, Item: 17, Weight: 4.5},
		{User: 9, Kind: profile.RemoveItem, Item: 2},
		{User: 3, Kind: profile.SetItem, Item: 1, Weight: float32(math.Inf(-1))},
	}))
	f.Add(EncodeUpdates(nil))
	f.Add(EncodeUpdates([]profile.Update{{User: 1, Kind: profile.ReplaceProfile}}))
	f.Add(appendU32(nil, 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		var updates []profile.Update
		var err error
		requireBoundedAlloc(t, data, func() { updates, err = DecodeUpdates(data) })
		if err != nil {
			return
		}
		if again := EncodeUpdates(updates); !bytes.Equal(again, data) {
			t.Fatalf("accepted update batch re-encodes to %x, was %x", again, data)
		}
	})
}

// FuzzDecodeMutations: arbitrary ADDUSER/DRAINMUT bodies never panic the
// mutation decoder, never make it allocate beyond a multiple of their
// length (neither the claimed count nor a profile length sizes a buffer
// the bytes cannot back), and a batch it accepts re-encodes to exactly
// the same bytes.
func FuzzDecodeMutations(f *testing.F) {
	vec, err := profile.NewVector([]profile.Entry{{Item: 4, Weight: 1}, {Item: 11, Weight: 0.5}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeMutations([]Mutation{
		{Op: MutAdd, User: 40, Profile: vec.AppendBinary(nil)},
		{Op: MutDel, User: 7},
		{Op: MutAdd, User: 41},
	}))
	f.Add(EncodeMutations(nil))
	f.Add(append(appendU32(appendU32(append(appendU32(nil, 1), MutDel), 7), 2), 1, 2))
	f.Add(append(appendU32(appendU32(append(appendU32(nil, 1), MutAdd), 7), 0xFFFFFFFF), 1))
	f.Add(append(appendU32(nil, 1), 0x02, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(appendU32(nil, 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		var muts []Mutation
		var err error
		requireBoundedAlloc(t, data, func() { muts, err = DecodeMutations(data) })
		if err != nil {
			return
		}
		if again := EncodeMutations(muts); !bytes.Equal(again, data) {
			t.Fatalf("accepted mutation batch re-encodes to %x, was %x", again, data)
		}
	})
}

// FuzzDecodeStaleness: arbitrary staleness documents never panic the
// decoder, never make it allocate beyond a multiple of their length (the
// claimed row count is checked against the 44-byte rows behind it), and
// a document it accepts re-encodes to exactly the same bytes.
func FuzzDecodeStaleness(f *testing.F) {
	f.Add(EncodeStaleness(api.StalenessResponse{
		LastFullEpoch: 12, Threshold: 0.25, Users: 400,
		Partitions: []api.PartitionStaleness{
			{Partition: 0, Adds: 3, Deletes: 1, TouchedEdges: 40, Members: 50, Score: 0.18},
			{Partition: 1, Members: 50},
		},
	}))
	f.Add(EncodeStaleness(api.StalenessResponse{LastFullEpoch: 1}))
	f.Add(append(EncodeStaleness(api.StalenessResponse{})[:24], appendU32(nil, 0xFFFFFFFF)...))
	f.Add(EncodeStaleness(api.StalenessResponse{Threshold: math.NaN()})[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc api.StalenessResponse
		var err error
		requireBoundedAlloc(t, data, func() { doc, err = DecodeStaleness(data) })
		if err != nil {
			return
		}
		if again := EncodeStaleness(doc); !bytes.Equal(again, data) {
			t.Fatalf("accepted staleness document re-encodes to %x, was %x", again, data)
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

// FuzzReadFrame: no byte stream panics the frame reader or makes it
// allocate more than frameChunk plus a multiple of the bytes that
// arrived (a length prefix alone sizes nothing past frameChunk), a
// frame it accepts is exactly what writeFrame puts on the wire for that
// payload, and any payload writeFrame frames reads back identically.
func FuzzReadFrame(f *testing.F) {
	var framed bytes.Buffer
	if err := writeFrame(&framed, []byte{statusOK}, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add(appendU32(nil, 0))
	f.Add(appendU32(nil, 3)[:2])
	f.Add(append(appendU32(nil, 5), 1, 2))
	f.Add(append(appendU32(nil, maxFrame), 0xAA))
	f.Add(appendU32(nil, maxFrame+1))
	f.Add(appendU32(nil, 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		var payload []byte
		var err error
		requireAllocWithin(t, len(data), frameChunk+allocBound(len(data)), func() {
			payload, err = readFrame(bytes.NewReader(data))
		})
		if err == nil {
			var wire bytes.Buffer
			if werr := writeFrame(&wire, payload); werr != nil || !bytes.Equal(wire.Bytes(), data[:4+len(payload)]) {
				t.Fatalf("accepted frame %x re-frames as %x (%v)", data[:4+len(payload)], wire.Bytes(), werr)
			}
		}

		var wire bytes.Buffer
		if err := writeFrame(&wire, data); err != nil {
			t.Fatal(err)
		}
		if got, err := readFrame(&wire); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("framed %x read back as %x (%v)", data, got, err)
		}
	})
}

// FuzzDecodeCollectItem: arbitrary COLLECT partition payloads never
// panic the decoder or make it allocate beyond a multiple of their
// length (the partial count is checked against the bytes behind it),
// and an item it accepts re-encodes to the same frame byte for byte.
func FuzzDecodeCollectItem(f *testing.F) {
	item := encodeCollectItem(CollectItem{Partition: 3, Base: []byte{1, 2, 3}, Partials: [][]byte{{4}, {}, {5, 6}}})
	f.Add(item[1:])
	f.Add(encodeCollectItem(CollectItem{})[1:])
	f.Add(item[1 : len(item)-1])
	f.Add(append(item[1:], 0))
	f.Add(appendU32(appendU32(nil, 1), 0xFFFFFFFF))
	f.Add(appendU32(appendU32(appendU32(nil, 1), 0), 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		var it CollectItem
		var err error
		requireBoundedAlloc(t, data, func() { it, err = decodeCollectItem(data) })
		if err != nil {
			return
		}
		if again := encodeCollectItem(it); again[0] != statusPart || !bytes.Equal(again[1:], data) {
			t.Fatalf("accepted collect item re-encodes to %x, was %x", again, data)
		}
	})
}

// FuzzReplay: arbitrary journal bytes never panic the one replay
// decoder and never make it allocate beyond a multiple of their length
// (a record's blobs alias the bytes it was handed, and no length prefix
// sizes a buffer). Replay is also
// idempotent on the prefix it accepts: replaying that prefix alone
// rebuilds the same state and reports the same length.
func FuzzReplay(f *testing.F) {
	dir := f.TempDir()
	srv, client := startDurable(f, "127.0.0.1:0", dir)
	populate(f, client)
	f.Add(readJournal(f, dir))
	f.Add(compaction(f, srv))
	client.Close()
	srv.Close()
	f.Add([]byte{})
	f.Add(appendU32(nil, 0))
	f.Add(append(appendU32(nil, 5), 0x01, 0, 0, 0, 1)) // the older layout's put record; 0x01 is GET
	f.Add(append(appendU32(nil, 9), opLease, 0, 0, 0, 1, 0, 0, 0, 7))
	f.Add(append(appendU32(nil, 0x4000), 0xde, 0xad))
	newShardOrFail := func(t *testing.T) *Server {
		s, err := newShard(ServerConfig{Shard: 0, Shards: 1, NumPartitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newShardOrFail(t)
		var good int
		// Replay keeps up to a map entry or a slice header per record, and
		// a record can be 5 bytes long, so its bound is four decoders'.
		requireAllocWithin(t, len(data), 4*allocBound(len(data)), func() { good, _ = s.replay(data) })
		again := newShardOrFail(t)
		if g, err := again.replay(data[:good]); err != nil || g != good {
			t.Fatalf("replaying the %d-byte good prefix accepted %d bytes (%v)", good, g, err)
		}
		if got, want := dumpShard(again)+leaseDump(again), dumpShard(s)+leaseDump(s); got != want {
			t.Fatalf("replaying the good prefix rebuilt\n%s\nnot\n%s", got, want)
		}
	})
}

// FuzzDecodeResponses: arbitrary answer bodies never panic the
// client's decoders of the EPOCH pair, the LEASE token, a GETVIEW or
// PROFILE answer, the NEIGHBORS list and the drained-batch splitter,
// never make one allocate beyond a multiple of their length (the
// NEIGHBORS count and every batch length are checked against the bytes
// behind them), and an answer one accepts is exactly what the shared
// encoder lays out for what it decoded.
func FuzzDecodeResponses(f *testing.F) {
	f.Add(encodeEpoch(3, 2))
	f.Add(appendU64(nil, 7))
	f.Add(appendStamped(4, viewFor(7, 4)))
	f.Add(encodeLookup(opNeighbors, 9, ViewEntry{Neighbors: []uint32{1, 2, 3}}))
	f.Add(encodeLookup(opNeighbors, 9, ViewEntry{}))
	f.Add(append(appendU64(nil, 1), appendU32(nil, 0xFFFFFFFF)...))
	f.Add(encodeDrained([][]byte{
		EncodeUpdates([]profile.Update{{User: 3, Kind: profile.SetItem, Item: 1, Weight: 2}}),
		{},
		EncodeMutations([]Mutation{{Op: MutDel, User: 7}}),
	}))
	f.Add(appendU32(nil, 0xFFFFFFFF))
	f.Add(append(encodeEpoch(3, 2), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		same := func(what string, again []byte) {
			t.Helper()
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted %s %x re-encodes to %x", what, data, again)
			}
		}
		var base, view, epoch, token uint64
		var blob []byte
		var ids []uint32
		var err error
		requireBoundedAlloc(t, data, func() { base, view, err = decodeEpoch(data) })
		if err == nil {
			same("EPOCH answer", encodeEpoch(base, view))
		}
		requireBoundedAlloc(t, data, func() { token, err = decodeToken(data) })
		if err == nil {
			same("LEASE answer", appendU64(nil, token))
		}
		requireBoundedAlloc(t, data, func() { epoch, blob, err = decodeStamped(data) })
		if err == nil {
			same("stamped answer", appendStamped(epoch, blob))
		}
		requireBoundedAlloc(t, data, func() { epoch, ids, err = decodeNeighbors(data) })
		if err == nil {
			same("NEIGHBORS answer", encodeLookup(opNeighbors, epoch, ViewEntry{Neighbors: ids}))
		}
		requireBoundedAlloc(t, data, func() { err = eachDrained(data, func([]byte) error { return nil }) })
		if err == nil {
			var batches [][]byte
			if err := eachDrained(data, func(b []byte) error { batches = append(batches, b); return nil }); err != nil {
				t.Fatalf("drained answer accepted once, then refused: %v", err)
			}
			same("drained answer", encodeDrained(batches))
		}
	})
}
