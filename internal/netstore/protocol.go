// Package netstore implements the network state store of multi-process
// phase 4: partition state moves through a sharded key-value service
// speaking a minimal length-prefixed TCP protocol, with each server
// shard owning a contiguous partition range and its own (emulated)
// spindle — so phase-4 state I/O queues per shard instead of on one
// global device, which is exactly the ceiling the single shared spindle
// hits at four tape workers.
//
// The protocol has five compute verbs plus housekeeping:
//
//	GET p            → the partition's base state blob
//	PUT p kind tok b → store a blob: kind "base" (phase 1; resets the
//	                   partition's partials, revokes outstanding
//	                   leases, and bumps the partition's epoch), kind
//	                   "partial" (a worker's write-back, admitted only
//	                   under a live fencing token), or kind "view" (the
//	                   committed per-partition serve view, stamped with
//	                   the current epoch)
//	LEASE p          → a fencing token; many workers may hold
//	                   overlapping leases on one partition
//	RELEASE p tok    → invalidate one token
//	COLLECT          → stream every owned partition (base + partials)
//	                   in ascending id order
//	CLEAR            → drop compute state (bases, partials, leases);
//	                   epochs, serve views, and pending updates survive
//
// and a read/serving side that never takes leases (the online query
// tier — replicas and cmd/knnserve — speaks only these):
//
//	EPOCH p          → the partition's epoch plus the epoch stamp of
//	                   its current serve view
//	GETVIEW p        → the serve view's epoch stamp and blob
//	NEIGHBORS u      → user u's committed neighbor ids (epoch-tagged)
//	PROFILE u        → user u's committed profile blob (epoch-tagged)
//	PUSHUPD blob     → enqueue encoded profile updates for phase 5
//	DRAINUPD         → return and clear the pending update queue
//	ADDUSER u blob   → record user u (re)entering the graph: clears the
//	                   shard's tombstone for u, and on u's owning shard
//	                   (u mod N) enqueues the profile for the engine's
//	                   delta path
//	DELUSER u        → tombstone user u: point lookups on this shard
//	                   miss immediately, and u's owning shard enqueues
//	                   the removal for the engine's delta path
//	DRAINMUT         → return and clear the pending mutation queue
//	STALENESS        → the staleness document the engine last published
//
// Every frame is a uint32 big-endian length followed by that many
// payload bytes; requests start with a one-byte opcode, responses with
// a one-byte status. Workers never share memory: each one scores into a
// private accumulator partial and PUTs it at unload, and the partials
// merge — commutatively, via knn.TopK.Merge — when the engine COLLECTs,
// so the same code path runs in-process over loopback or across
// processes.
package netstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"knnpc/internal/profile"
)

// Opcodes (first payload byte of a request frame).
const (
	opGet       = 0x01
	opPut       = 0x02
	opLease     = 0x03
	opRelease   = 0x04
	opCollect   = 0x05
	opClear     = 0x06
	opEpoch     = 0x07
	opGetView   = 0x08
	opNeighbors = 0x09
	opProfile   = 0x0a
	opPushUpd   = 0x0b
	opDrainUpd  = 0x0c
	opAddUser   = 0x0d
	opDelUser   = 0x0e
	opDrainMut  = 0x0f
	opStaleness = 0x10
	// 0x11 is retired and stays unassigned.
)

// Statuses (first payload byte of a response frame).
const (
	statusOK    = 0x00
	statusErr   = 0x01
	statusPart  = 0x02 // one COLLECT partition payload; more frames follow
	statusEnd   = 0x03 // COLLECT stream terminator
	statusStale = 0x04 // fencing rejection: the request's lease token is not live
	statusMiss  = 0x05 // point lookup: this shard serves no view containing the user
	statusRetry = 0x06 // transient server-side fault; the request was NOT applied — retry
)

// PUT kinds.
const (
	putBase    = 0x00
	putPartial = 0x01
	putView    = 0x02
	// putDeltaView is a delta republish: it bumps the partition's epoch
	// FIRST and then installs the view stamped with the new epoch, so
	// replicas' probe-then-pull sees the stamp move without any phase-1
	// base install having happened. Compute state is untouched.
	putDeltaView = 0x03
	// putStale stores the engine's staleness document (an
	// EncodeStaleness blob) on the shard. Pure metadata: no device
	// charge, survives CLEAR, replaced wholesale by each publish.
	putStale = 0x04
)

// maxFrame bounds a frame's payload so a torn or corrupt length prefix
// fails fast instead of attempting a multi-gigabyte allocation.
const maxFrame = 1 << 28

// writeFrame sends one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("netstore: frame of %d bytes exceeds the %d-byte bound", len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameChunk is the most readFrame allocates before payload bytes
// arrive; a frame of up to this size is read with one allocation.
const frameChunk = 1 << 20

// readFrame receives one length-prefixed frame. A short read mid-frame
// surfaces as io.ErrUnexpectedEOF — the torn-frame signal both sides
// treat as a dead peer. The buffer starts at frameChunk at most and
// doubles only as bytes arrive, so a length prefix alone — from a peer
// or a corrupt file — cannot make the reader allocate maxFrame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("netstore: frame length %d exceeds the %d-byte bound (corrupt stream?)", n, maxFrame)
	}
	size := int(n)
	payload := make([]byte, 0, min(size, frameChunk))
	for len(payload) < size {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), len(payload)+min(size-len(payload), len(payload)))
			copy(grown, payload)
			payload = grown
		}
		got, err := io.ReadFull(r, payload[len(payload):min(size, cap(payload))])
		payload = payload[:len(payload)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// appendU32 / appendU64 are the protocol's only integer encodings
// (big-endian, fixed width).
func appendU32(buf []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(buf, v) }
func appendU64(buf []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(buf, v) }

// cut reads a fixed-width prefix off buf, reporting failure on short
// payloads instead of panicking on attacker-controlled frames.
func cutU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("netstore: payload truncated (want 4 bytes, have %d)", len(buf))
	}
	return binary.BigEndian.Uint32(buf), buf[4:], nil
}

func cutU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("netstore: payload truncated (want 8 bytes, have %d)", len(buf))
	}
	return binary.BigEndian.Uint64(buf), buf[8:], nil
}

func cutByte(buf []byte) (byte, []byte, error) {
	if len(buf) < 1 {
		return 0, nil, fmt.Errorf("netstore: payload truncated (want 1 byte, have 0)")
	}
	return buf[0], buf[1:], nil
}

// CollectItem is one partition's worth of a COLLECT stream: the base
// state blob written in phase 1 and every per-worker partial PUT since.
type CollectItem struct {
	Partition uint32
	Base      []byte
	Partials  [][]byte
}

// encodeCollectItem lays out one statusPart frame payload (after the
// status byte): partition u32, partial count u32, base length u32 +
// bytes, then per partial length u32 + bytes.
func encodeCollectItem(it CollectItem) []byte {
	n := 1 + 4 + 4 + 4 + len(it.Base)
	for _, p := range it.Partials {
		n += 4 + len(p)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, statusPart)
	buf = appendU32(buf, it.Partition)
	buf = appendU32(buf, uint32(len(it.Partials)))
	buf = appendU32(buf, uint32(len(it.Base)))
	buf = append(buf, it.Base...)
	for _, p := range it.Partials {
		buf = appendU32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// decodeCollectItem parses a statusPart payload (status byte already
// consumed).
func decodeCollectItem(buf []byte) (CollectItem, error) {
	var it CollectItem
	var err error
	if it.Partition, buf, err = cutU32(buf); err != nil {
		return it, err
	}
	nPartials, buf, err := cutU32(buf)
	if err != nil {
		return it, err
	}
	// Each partial needs at least its 4-byte length prefix, so the
	// count is bounded by the remaining payload — validated BEFORE the
	// allocation below, or a corrupt count would be a fatal OOM instead
	// of a decode error.
	if int64(nPartials) > int64(len(buf))/4 {
		return it, fmt.Errorf("netstore: collect item of partition %d claims %d partials in %d bytes", it.Partition, nPartials, len(buf))
	}
	baseLen, buf, err := cutU32(buf)
	if err != nil {
		return it, err
	}
	if uint32(len(buf)) < baseLen {
		return it, fmt.Errorf("netstore: collect item of partition %d truncated in base blob", it.Partition)
	}
	it.Base = buf[:baseLen:baseLen]
	buf = buf[baseLen:]
	it.Partials = make([][]byte, 0, nPartials)
	for i := uint32(0); i < nPartials; i++ {
		var pLen uint32
		if pLen, buf, err = cutU32(buf); err != nil {
			return it, err
		}
		if uint32(len(buf)) < pLen {
			return it, fmt.Errorf("netstore: collect item of partition %d truncated in partial %d", it.Partition, i)
		}
		it.Partials = append(it.Partials, buf[:pLen:pLen])
		buf = buf[pLen:]
	}
	if len(buf) != 0 {
		return it, fmt.Errorf("netstore: collect item of partition %d has %d trailing bytes", it.Partition, len(buf))
	}
	return it, nil
}

// ViewEntry is one member of a partition's serve view: the user's
// committed neighbor ids and encoded profile vector, as of the epoch
// the view was published under. Views are what the read path — EPOCH /
// GETVIEW / NEIGHBORS / PROFILE — serves; the compute path never reads
// them.
type ViewEntry struct {
	User      uint32
	Neighbors []uint32
	Profile   []byte // opaque profile.Vector encoding (see internal/profile)
}

// EncodeView lays out a serve-view blob: member count u32, then per
// member the user id, neighbor count + ids, and profile length + bytes.
func EncodeView(entries []ViewEntry) []byte {
	n := 4
	for _, e := range entries {
		n += 4 + 4 + 4*len(e.Neighbors) + 4 + len(e.Profile)
	}
	buf := make([]byte, 0, n)
	buf = appendU32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = appendU32(buf, e.User)
		buf = appendU32(buf, uint32(len(e.Neighbors)))
		for _, id := range e.Neighbors {
			buf = appendU32(buf, id)
		}
		buf = appendU32(buf, uint32(len(e.Profile)))
		buf = append(buf, e.Profile...)
	}
	return buf
}

// DecodeView parses a serve-view blob. Sub-slices alias blob, which
// callers must therefore treat as immutable.
func DecodeView(blob []byte) ([]ViewEntry, error) {
	count, buf, err := cutU32(blob)
	if err != nil {
		return nil, err
	}
	// Every entry needs at least 12 bytes of fixed header, bounding the
	// claimed count before the allocation (same rule as collect items).
	if int64(count) > int64(len(buf))/12 {
		return nil, fmt.Errorf("netstore: view claims %d members in %d bytes", count, len(buf))
	}
	entries := make([]ViewEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		var e ViewEntry
		if e.User, buf, err = cutU32(buf); err != nil {
			return nil, fmt.Errorf("netstore: view member %d: %w", i, err)
		}
		nbrs, rest, err := cutU32(buf)
		if err != nil {
			return nil, fmt.Errorf("netstore: view member %d: %w", i, err)
		}
		buf = rest
		if int64(nbrs) > int64(len(buf))/4 {
			return nil, fmt.Errorf("netstore: view member %d claims %d neighbors in %d bytes", i, nbrs, len(buf))
		}
		e.Neighbors = make([]uint32, nbrs)
		for j := range e.Neighbors {
			e.Neighbors[j] = binary.BigEndian.Uint32(buf)
			buf = buf[4:]
		}
		pLen, rest, err := cutU32(buf)
		if err != nil {
			return nil, fmt.Errorf("netstore: view member %d: %w", i, err)
		}
		buf = rest
		if uint32(len(buf)) < pLen {
			return nil, fmt.Errorf("netstore: view member %d truncated in profile blob", i)
		}
		e.Profile = buf[:pLen:pLen]
		buf = buf[pLen:]
		entries = append(entries, e)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("netstore: view has %d trailing bytes", len(buf))
	}
	return entries, nil
}

// EncodeUpdates serializes a batch of queued profile updates for
// PUSHUPD: count u32, then per update kind byte, user u32, item u32,
// and the weight's float32 bits. Only item-granular kinds (SetItem,
// RemoveItem) travel — ReplaceProfile carries a whole vector the fixed
// 13-byte record cannot, and DecodeUpdates rejects it.
func EncodeUpdates(updates []profile.Update) []byte {
	buf := make([]byte, 0, 4+13*len(updates))
	buf = appendU32(buf, uint32(len(updates)))
	for _, u := range updates {
		buf = append(buf, byte(u.Kind))
		buf = appendU32(buf, u.User)
		buf = appendU32(buf, u.Item)
		buf = appendU32(buf, math.Float32bits(u.Weight))
	}
	return buf
}

// DecodeUpdates parses an encoded update batch.
func DecodeUpdates(blob []byte) ([]profile.Update, error) {
	count, buf, err := cutU32(blob)
	if err != nil {
		return nil, err
	}
	if int64(count) > int64(len(buf))/13 {
		return nil, fmt.Errorf("netstore: update batch claims %d updates in %d bytes", count, len(buf))
	}
	updates := make([]profile.Update, 0, count)
	for i := uint32(0); i < count; i++ {
		var u profile.Update
		kind, rest, err := cutByte(buf)
		if err != nil {
			return nil, fmt.Errorf("netstore: update %d: %w", i, err)
		}
		buf = rest
		u.Kind = profile.UpdateKind(kind)
		if u.Kind != profile.SetItem && u.Kind != profile.RemoveItem {
			return nil, fmt.Errorf("netstore: update %d has non-wire kind %d", i, kind)
		}
		if u.User, buf, err = cutU32(buf); err != nil {
			return nil, fmt.Errorf("netstore: update %d: %w", i, err)
		}
		if u.Item, buf, err = cutU32(buf); err != nil {
			return nil, fmt.Errorf("netstore: update %d: %w", i, err)
		}
		bits, rest2, err := cutU32(buf)
		if err != nil {
			return nil, fmt.Errorf("netstore: update %d: %w", i, err)
		}
		buf = rest2
		u.Weight = math.Float32frombits(bits)
		updates = append(updates, u)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("netstore: update batch has %d trailing bytes", len(buf))
	}
	return updates, nil
}

// Mutation ops (first byte of an encoded mutation record).
const (
	// MutAdd records a user (re)entering the graph, carrying the
	// profile vector the delta inserter places.
	MutAdd = 0x00
	// MutDel records a user leaving the graph; the profile field is
	// empty.
	MutDel = 0x01
)

// Mutation is one queued graph mutation — an online user add (with its
// encoded profile vector) or a tombstone delete — awaiting the engine's
// delta pass. Mutations are routed to shard user mod N (the same stable
// mapping PUSHUPD uses), so per-user order survives the fleet.
type Mutation struct {
	// Op is MutAdd or MutDel.
	Op byte
	// User is the mutated user id.
	User uint32
	// Profile is the opaque profile.Vector encoding for MutAdd; empty
	// for MutDel.
	Profile []byte
}

// EncodeMutations serializes a mutation batch for ADDUSER/DELUSER
// queues: count u32, then per mutation op byte, user u32, profile
// length u32 + bytes.
func EncodeMutations(muts []Mutation) []byte {
	n := 4
	for _, m := range muts {
		n += 1 + 4 + 4 + len(m.Profile)
	}
	buf := make([]byte, 0, n)
	buf = appendU32(buf, uint32(len(muts)))
	for _, m := range muts {
		buf = append(buf, m.Op)
		buf = appendU32(buf, m.User)
		buf = appendU32(buf, uint32(len(m.Profile)))
		buf = append(buf, m.Profile...)
	}
	return buf
}

// DecodeMutations parses an encoded mutation batch, rejecting unknown
// ops on arrival so a malformed batch fails its sender, not the
// draining engine.
func DecodeMutations(blob []byte) ([]Mutation, error) {
	count, buf, err := cutU32(blob)
	if err != nil {
		return nil, err
	}
	// Each mutation needs at least its 9-byte fixed header, bounding the
	// claimed count before the allocation (same rule as collect items).
	if int64(count) > int64(len(buf))/9 {
		return nil, fmt.Errorf("netstore: mutation batch claims %d mutations in %d bytes", count, len(buf))
	}
	muts := make([]Mutation, 0, count)
	for i := uint32(0); i < count; i++ {
		var m Mutation
		op, rest, err := cutByte(buf)
		if err != nil {
			return nil, fmt.Errorf("netstore: mutation %d: %w", i, err)
		}
		buf = rest
		if op != MutAdd && op != MutDel {
			return nil, fmt.Errorf("netstore: mutation %d has unknown op 0x%02x", i, op)
		}
		m.Op = op
		if m.User, buf, err = cutU32(buf); err != nil {
			return nil, fmt.Errorf("netstore: mutation %d: %w", i, err)
		}
		pLen, rest2, err := cutU32(buf)
		if err != nil {
			return nil, fmt.Errorf("netstore: mutation %d: %w", i, err)
		}
		buf = rest2
		if uint32(len(buf)) < pLen {
			return nil, fmt.Errorf("netstore: mutation %d truncated in profile blob", i)
		}
		if op == MutDel && pLen != 0 {
			return nil, fmt.Errorf("netstore: mutation %d is a delete carrying %d profile bytes", i, pLen)
		}
		m.Profile = buf[:pLen:pLen]
		buf = buf[pLen:]
		muts = append(muts, m)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("netstore: mutation batch has %d trailing bytes", len(buf))
	}
	return muts, nil
}

// PartitionStaleness is one partition's row of the engine's published
// staleness document: the mutation counts accumulated since the last
// full iteration and the resulting staleness score.
type PartitionStaleness struct {
	// Partition is the partition id (per the assignment of the last
	// full iteration).
	Partition uint32
	// Adds and Deletes count delta mutations attributed to the
	// partition since its last full rebuild.
	Adds, Deletes uint64
	// TouchedEdges estimates how many graph edges delta commits have
	// rewritten inside the partition.
	TouchedEdges uint64
	// Members is the partition's population at the last full iteration.
	Members uint64
	// Score is the normalized staleness the engine's threshold compares
	// against: (Adds + Deletes + TouchedEdges/K) / max(1, Members).
	Score float64
}

// StalenessDoc is the engine's published staleness document — what
// GET /v1/staleness serves. One document covers every partition.
type StalenessDoc struct {
	// LastFullEpoch is the committed epoch of the most recent full
	// five-phase iteration.
	LastFullEpoch uint64
	// Threshold is the configured staleness threshold (0 = delta
	// scheduling disabled; every Run pass iterates fully).
	Threshold float64
	// Users is the total committed id space — every id ever assigned,
	// tombstoned ones included — so the next fresh add takes id Users.
	// Serving front ends use it to reject obviously out-of-range
	// mutation ids before they reach a journal.
	Users uint64
	// Partitions holds one row per partition, in ascending id order.
	Partitions []PartitionStaleness
}

// EncodeStaleness serializes a staleness document for putStale:
// last-full epoch u64, threshold float64 bits u64, user count u64, row
// count u32, then per row partition u32 and five u64 fields (score as
// float64 bits).
func EncodeStaleness(doc StalenessDoc) []byte {
	buf := make([]byte, 0, 8+8+8+4+44*len(doc.Partitions))
	buf = appendU64(buf, doc.LastFullEpoch)
	buf = appendU64(buf, math.Float64bits(doc.Threshold))
	buf = appendU64(buf, doc.Users)
	buf = appendU32(buf, uint32(len(doc.Partitions)))
	for _, p := range doc.Partitions {
		buf = appendU32(buf, p.Partition)
		buf = appendU64(buf, p.Adds)
		buf = appendU64(buf, p.Deletes)
		buf = appendU64(buf, p.TouchedEdges)
		buf = appendU64(buf, p.Members)
		buf = appendU64(buf, math.Float64bits(p.Score))
	}
	return buf
}

// DecodeStaleness parses an encoded staleness document.
func DecodeStaleness(blob []byte) (StalenessDoc, error) {
	var doc StalenessDoc
	var err error
	if doc.LastFullEpoch, blob, err = cutU64(blob); err != nil {
		return doc, err
	}
	bits, blob, err := cutU64(blob)
	if err != nil {
		return doc, err
	}
	doc.Threshold = math.Float64frombits(bits)
	if doc.Users, blob, err = cutU64(blob); err != nil {
		return doc, err
	}
	count, blob, err := cutU32(blob)
	if err != nil {
		return doc, err
	}
	if int64(count) > int64(len(blob))/44 {
		return doc, fmt.Errorf("netstore: staleness doc claims %d partitions in %d bytes", count, len(blob))
	}
	doc.Partitions = make([]PartitionStaleness, 0, count)
	for i := uint32(0); i < count; i++ {
		var p PartitionStaleness
		if p.Partition, blob, err = cutU32(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		if p.Adds, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		if p.Deletes, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		if p.TouchedEdges, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		if p.Members, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		var sb uint64
		if sb, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		p.Score = math.Float64frombits(sb)
		doc.Partitions = append(doc.Partitions, p)
	}
	if len(blob) != 0 {
		return doc, fmt.Errorf("netstore: staleness doc has %d trailing bytes", len(blob))
	}
	return doc, nil
}
