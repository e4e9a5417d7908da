// Package netstore implements the network state store of multi-process
// phase 4: partition state moves through a sharded key-value service
// speaking a minimal length-prefixed TCP protocol, with each server
// shard owning a contiguous partition range and its own (emulated)
// spindle — so phase-4 state I/O queues per shard instead of on one
// global device, which is exactly the ceiling the single shared spindle
// hits at four tape workers.
//
// The compute verbs (GET, PUT, LEASE, RELEASE, COLLECT, CLEAR) move
// phase-4 state under fencing leases; the read and serving verbs
// (EPOCH, GETVIEW, NEIGHBORS, PROFILE, WATCH, PUSHUPD, DRAINUPD) and the
// mutation verbs (ADDUSER, DELUSER, DRAINMUT, STALENESS) never take
// one. docs/PROTOCOL.md specifies every message byte for byte, and a
// test pins its tables to the constants below; this file is where
// every message is parsed and bounded.
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
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"knnpc/internal/api"
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
	opWatch = 0x12
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

// failureStatuses pairs each failure class the wire names with its
// status. A node answers a failure under its class's status
// (errorStatus), and a client turns the status back into the class
// (checkResponse), so callers match with errors.Is, never on message
// text. Every other failure travels as statusErr.
var failureStatuses = [...]struct {
	class  error
	status byte
}{{ErrStaleLease, statusStale}, {ErrNotServed, statusMiss}, {ErrRetryable, statusRetry}}

// errorStatus picks the status byte an in-band failure travels under.
// Transient faults (the injected-device class) fire BEFORE any state
// mutates, so the client may always retry — statusRetry is that promise
// on the wire.
func errorStatus(err error) byte {
	for _, f := range failureStatuses {
		if errors.Is(err, f.class) {
			return f.status
		}
	}
	return statusErr
}

// checkResponse splits a response frame into its payload, turning a
// failure status back into a Go error.
func checkResponse(resp []byte) ([]byte, error) {
	status, body, err := splitFrame(resp)
	if err != nil || status == statusOK {
		return body, err
	}
	for _, f := range failureStatuses {
		if status == f.status {
			return nil, fmt.Errorf("%w: %s", f.class, body)
		}
	}
	if status == statusErr {
		return nil, errors.New(string(body))
	}
	return nil, fmt.Errorf("netstore: unexpected response status 0x%02x", status)
}

// PUT kinds.
const (
	putBase      = 0x00
	putPartial   = 0x01
	putView      = 0x02
	putDeltaView = 0x03 // bumps the epoch, then installs the view stamped with it
	putStale     = 0x04 // the engine's staleness document; metadata, survives CLEAR
)

// The WATCH stream's liveness rules. A primary sends a heartbeat after
// watchHeartbeat of silence; both ends bound every frame on the stream
// by watchTimeout — the replica each read, the primary each write — so
// a dead or stalled peer is dropped within it, never waited on.
const (
	watchHeartbeat = 200 * time.Millisecond
	watchTimeout   = 5 * watchHeartbeat
)

// maxFrame bounds a frame's payload so a torn or corrupt length prefix
// fails fast instead of attempting a multi-gigabyte allocation.
const maxFrame = 1 << 28

// writeFrame sends one length-prefixed frame whose payload is the
// concatenation of parts, so a caller can frame a header and a stored
// blob without copying the blob.
func writeFrame(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxFrame {
		return fmt.Errorf("netstore: frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
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

// appendBytes appends b with its u32 length prefix — what reader.bytes
// reads back.
func appendBytes(buf, b []byte) []byte { return append(appendU32(buf, uint32(len(b))), b...) }

// reader is the one bounded reader every netstore decoder goes
// through. It reads a message's fields in order; the first read the
// bytes cannot back sets a sticky error and every later read returns
// zero values, so a decoder states its layout field by field and checks
// the error once, at done. Byte fields alias the message.
type reader struct {
	what string // the message, for errors
	buf  []byte
	err  error
}

func newReader(what string, buf []byte) *reader { return &reader{what: what, buf: buf} }

// fail records the first failure, naming the message, and drops the
// unread bytes.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("netstore: "+r.what+" "+format, args...)
	}
	r.buf = nil
}

// take cuts the next n bytes off the message.
func (r *reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("truncated (want %d bytes, have %d)", n, len(r.buf))
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// zeros is what a fixed-width read yields once the reader has failed.
var zeros [8]byte

// fixed cuts an n-byte integer field, or zeros once the reader failed.
func (r *reader) fixed(n uint64) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *reader) u8() byte    { return r.fixed(1)[0] }
func (r *reader) u32() uint32 { return binary.BigEndian.Uint32(r.fixed(4)) }
func (r *reader) u64() uint64 { return binary.BigEndian.Uint64(r.fixed(8)) }

// bytes reads a u32 length and that many bytes.
func (r *reader) bytes() []byte { return r.take(uint64(r.u32())) }

// rest takes every byte left: the blob that ends a message.
func (r *reader) rest() []byte { return r.take(uint64(len(r.buf))) }

// count reads a u32 item count and refuses one the remaining bytes
// cannot back at minItemBytes per item, so a caller may size storage by
// it: a corrupt count is a decode error, never an allocation the size
// of the lie.
func (r *reader) count(minItemBytes int) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(minItemBytes) > uint64(len(r.buf)) {
		r.fail("claims %d items of at least %d bytes in %d bytes", n, minItemBytes, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// done refuses bytes past the message's last field and reports the
// first failure.
func (r *reader) done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail("has %d trailing bytes", len(r.buf))
	}
	return r.err
}

// splitFrame splits a frame payload into its leading opcode (a request)
// or status (a response) and the body after it.
func splitFrame(frame []byte) (head byte, body []byte, err error) {
	r := newReader("frame", frame)
	head = r.u8()
	body = r.rest()
	return head, body, r.err
}

// command is one parsed request, or one journal record. Its opcode and
// body as received are its journal record (a LEASE record adds the
// granted token); the other fields are what the verb carries and what
// the server's prepare derives from it.
type command struct {
	op    byte
	body  []byte
	p     uint32 // GET, PUT, LEASE, RELEASE, EPOCH, GETVIEW, the epoch record
	kind  byte   // PUT kind
	token uint64 // PUT, RELEASE; the token a LEASE grants
	epoch uint64 // the epoch record
	user  uint32 // NEIGHBORS, PROFILE, ADDUSER, DELUSER
	blob  []byte // PUT blob, PUSHUPD batch, ADDUSER profile

	view  serveView // a view PUT's decode
	batch []byte    // ADDUSER/DELUSER's mutation batch
}

// parseCommand cuts a request body — or, when record is set, a journal
// record's — into a command: the one statement of every verb's request
// layout, shared by primaries, replicas and journal replay. A body that
// does not hold exactly its verb's fields, or an opcode that is no
// verb, is refused: a live peer is hung up on, and a journal holding it
// is corrupt. A LEASE record carries the granted token after the
// request, and the epoch record is a journal's only.
func parseCommand(op byte, body []byte, record bool) (command, error) {
	c := command{op: op, body: body}
	if op == recEpoch && !record {
		return c, fmt.Errorf("netstore: opcode 0x%02x is a journal record, not a verb", op)
	}
	r := newReader("request", body)
	switch op {
	case opPut:
		c.p = r.u32()
		c.kind = r.u8()
		c.token = r.u64()
		c.blob = r.rest()
	case opGet, opEpoch, opGetView:
		c.p = r.u32()
	case opLease:
		c.p = r.u32()
		if record {
			c.token = r.u64()
		}
	case opRelease:
		c.p = r.u32()
		c.token = r.u64()
	case recEpoch:
		c.p = r.u32()
		c.epoch = r.u64()
	case opNeighbors, opProfile, opDelUser:
		c.user = r.u32()
	case opAddUser:
		c.user = r.u32()
		c.blob = r.rest()
	case opPushUpd:
		c.blob = r.rest()
	case opCollect, opClear, opDrainUpd, opDrainMut, opStaleness, opWatch:
	default:
		return c, fmt.Errorf("netstore: unknown opcode 0x%02x", op)
	}
	return c, r.done()
}

// putRequest lays out a PUT request: partition u32, kind byte, token
// u64, then the blob to the end of the frame.
func putRequest(p uint32, kind byte, token uint64, blob []byte) []byte {
	req := make([]byte, 0, 1+4+1+8+len(blob))
	req = append(appendU32(append(req, opPut), p), kind)
	return append(appendU64(req, token), blob...)
}

// encodeEpoch / decodeEpoch lay out the EPOCH answer: the partition's
// base epoch u64, then its view's epoch stamp u64.
func encodeEpoch(base, view uint64) []byte { return appendU64(appendU64(nil, base), view) }

func decodeEpoch(body []byte) (base, view uint64, err error) {
	r := newReader("EPOCH answer", body)
	base = r.u64()
	view = r.u64()
	return base, view, r.done()
}

// decodeToken parses the LEASE answer: the granted token u64.
func decodeToken(body []byte) (uint64, error) {
	r := newReader("LEASE answer", body)
	token := r.u64()
	return token, r.done()
}

// appendStamped / decodeStamped lay out the GETVIEW and PROFILE
// answers: the view's epoch stamp u64, then the view or profile blob to
// the end of the frame.
func appendStamped(epoch uint64, blob []byte) []byte {
	return append(appendU64(make([]byte, 0, 8+len(blob)), epoch), blob...)
}

func decodeStamped(body []byte) (epoch uint64, blob []byte, err error) {
	r := newReader("stamped answer", body)
	epoch = r.u64()
	blob = r.rest()
	return epoch, blob, r.done()
}

// encodeLookup lays out a NEIGHBORS or PROFILE answer: the view epoch,
// then the neighbor list (count-prefixed) or the profile blob.
func encodeLookup(op byte, epoch uint64, entry ViewEntry) []byte {
	if op == opProfile {
		return appendStamped(epoch, entry.Profile)
	}
	resp := appendU32(appendU64(make([]byte, 0, 12+4*len(entry.Neighbors)), epoch), uint32(len(entry.Neighbors)))
	for _, id := range entry.Neighbors {
		resp = appendU32(resp, id)
	}
	return resp
}

// decodeNeighbors parses a NEIGHBORS answer.
func decodeNeighbors(body []byte) (epoch uint64, ids []uint32, err error) {
	r := newReader("NEIGHBORS answer", body)
	epoch = r.u64()
	ids = make([]uint32, r.count(4))
	for i := range ids {
		ids[i] = r.u32()
	}
	return epoch, ids, r.done()
}

// encodeDrained lays out a DRAINUPD or DRAINMUT answer: the queue's
// batches in arrival order, each u32-length-prefixed.
func encodeDrained(batches [][]byte) []byte {
	n := 0
	for _, b := range batches {
		n += 4 + len(b)
	}
	out := make([]byte, 0, n)
	for _, b := range batches {
		out = appendBytes(out, b)
	}
	return out
}

// eachDrained splits a DRAINUPD or DRAINMUT answer into its batches,
// handing each to fn in arrival order, and stops at fn's first error.
func eachDrained(body []byte, fn func(batch []byte) error) error {
	r := newReader("drained answer", body)
	for len(r.buf) > 0 {
		if batch := r.bytes(); r.err == nil {
			if err := fn(batch); err != nil {
				return err
			}
		}
	}
	return r.done()
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
	buf = appendBytes(buf, it.Base)
	for _, p := range it.Partials {
		buf = appendBytes(buf, p)
	}
	return buf
}

// decodeCollectItem parses a statusPart payload (status byte already
// consumed).
func decodeCollectItem(buf []byte) (CollectItem, error) {
	r := newReader("collect item", buf)
	it := CollectItem{Partition: r.u32()}
	// Each partial needs at least its 4-byte length prefix.
	n := r.count(4)
	it.Base = r.bytes()
	it.Partials = make([][]byte, n)
	for i := range it.Partials {
		it.Partials[i] = r.bytes()
	}
	return it, r.done()
}

// shipped is one view a primary forwards to its watchers: the
// partition, the epoch stamp it was installed under, and the immutable
// blob the PUT stored.
type shipped struct {
	partition uint32
	epoch     uint64
	blob      []byte
}

// shipHeader lays out the head of one WATCH stream frame: status PART,
// partition u32 and epoch u64. The view blob follows it to the end of
// the frame. A heartbeat frame is the bare status byte OK.
func shipHeader(v shipped) []byte {
	buf := make([]byte, 0, 1+4+8)
	buf = append(buf, statusPart)
	buf = appendU32(buf, v.partition)
	return appendU64(buf, v.epoch)
}

// decodeShipFrame parses one WATCH stream frame. A heartbeat reports
// heartbeat true and no view; an in-band failure (a node that refuses
// WATCH) comes back as the error its status maps to. The blob aliases
// frame.
func decodeShipFrame(frame []byte) (v shipped, heartbeat bool, err error) {
	status, body, err := splitFrame(frame)
	if err != nil {
		return v, false, err
	}
	switch status {
	case statusPart:
		r := newReader("watch frame", body)
		v.partition = r.u32()
		v.epoch = r.u64()
		v.blob = r.rest()
		return v, false, r.done()
	case statusOK:
		return v, true, newReader("watch heartbeat", body).done()
	default:
		_, err = checkResponse(frame) // never nil: OK is handled above
		return v, false, err
	}
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
		buf = appendBytes(buf, e.Profile)
	}
	return buf
}

// DecodeView parses a serve-view blob. Sub-slices alias blob, which
// callers must therefore treat as immutable.
func DecodeView(blob []byte) ([]ViewEntry, error) {
	r := newReader("view", blob)
	// Every entry needs at least 12 bytes of fixed header.
	entries := make([]ViewEntry, r.count(12))
	for i := range entries {
		e := &entries[i]
		e.User = r.u32()
		e.Neighbors = make([]uint32, r.count(4))
		for j := range e.Neighbors {
			e.Neighbors[j] = r.u32()
		}
		e.Profile = r.bytes()
	}
	if err := r.done(); err != nil {
		return nil, err
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
	r := newReader("update batch", blob)
	updates := make([]profile.Update, r.count(13))
	for i := range updates {
		u := &updates[i]
		u.Kind = profile.UpdateKind(r.u8())
		u.User = r.u32()
		u.Item = r.u32()
		u.Weight = math.Float32frombits(r.u32())
		if r.err == nil && u.Kind != profile.SetItem && u.Kind != profile.RemoveItem {
			r.fail("holds update %d of non-wire kind %d", i, u.Kind)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
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

// userShard is the one rule that places a user's mutations: profile
// updates (PUSHUPD) and user adds/deletes (ADDUSER/DELUSER) of user u
// queue on shard u mod shards. Unlike a partition's shard it never
// moves between iterations, so one user's pushes all land on one shard
// queue and drain in push order.
func userShard(u uint32, shards int) int { return int(u) % shards }

// Mutation is one queued graph mutation — an online user add (with its
// encoded profile vector) or a tombstone delete — awaiting the engine's
// delta pass. Mutations are routed by userShard, so per-user order
// survives the fleet.
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
		buf = appendBytes(buf, m.Profile)
	}
	return buf
}

// DecodeMutations parses an encoded mutation batch, rejecting unknown
// ops on arrival so a malformed batch fails its sender, not the
// draining engine.
func DecodeMutations(blob []byte) ([]Mutation, error) {
	r := newReader("mutation batch", blob)
	// Each mutation needs at least its 9-byte fixed header.
	muts := make([]Mutation, r.count(9))
	for i := range muts {
		m := &muts[i]
		m.Op = r.u8()
		m.User = r.u32()
		m.Profile = r.bytes()
		switch {
		case r.err != nil:
		case m.Op != MutAdd && m.Op != MutDel:
			r.fail("holds mutation %d of unknown op 0x%02x", i, m.Op)
		case m.Op == MutDel && len(m.Profile) != 0:
			r.fail("holds delete %d carrying %d profile bytes", i, len(m.Profile))
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return muts, nil
}

// EncodeStaleness serializes the engine's staleness document — the
// body GET /v1/staleness serves, so the wire carries the api type
// itself — for putStale: last-full epoch u64, threshold float64 bits
// u64, user count u64, row count u32, then per row partition u32 and
// five u64 fields (score as float64 bits).
func EncodeStaleness(doc api.StalenessResponse) []byte {
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
func DecodeStaleness(blob []byte) (api.StalenessResponse, error) {
	r := newReader("staleness document", blob)
	var doc api.StalenessResponse
	doc.LastFullEpoch = r.u64()
	doc.Threshold = math.Float64frombits(r.u64())
	doc.Users = r.u64()
	doc.Partitions = make([]api.PartitionStaleness, r.count(44))
	for i := range doc.Partitions {
		p := &doc.Partitions[i]
		p.Partition = r.u32()
		p.Adds = r.u64()
		p.Deletes = r.u64()
		p.TouchedEdges = r.u64()
		p.Members = r.u64()
		p.Score = math.Float64frombits(r.u64())
	}
	return doc, r.done()
}
