package netstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Shard durability: a snapshot + journal pair under ServerConfig's
// DataDir, documented byte-for-byte in docs/PROTOCOL.md ("Snapshot and
// journal format").
//
// Every applied mutation appends one journal record while the state
// mutex is still held, so journal order IS application order and
// replay can never invert two racing writes. A snapshot is cut at
// every commit marker (a staleness publish — the last write of an
// engine iteration) and whenever the journal outgrows its threshold;
// cutting a snapshot atomically truncates the journal under the same
// mutex, so the pair always composes to exactly the current state.
//
// Recovery = decode snapshot, replay journal, truncate a torn tail
// (the shape a mid-append crash leaves), then revoke every lease:
// leases are deliberately volatile, so the restart itself fences every
// pre-crash worker — their tokens are gone, their write-backs answer
// ErrStaleLease, and the engine re-leases through its retry path.
//
// Durability is against process death (kill -9): writes reach the
// kernel on every record — there is no user-space buffering — but no
// fsync is issued, so host-machine crashes are out of scope.

// Journal record kinds (first payload byte of each journal frame).
// 0x04 is retired and stays unassigned, so a journal that still holds
// one fails replay loudly instead of being misread.
const (
	recPut      = 0x01 // u32 partition, kind byte, u64 token, blob
	recLease    = 0x02 // u32 partition, u64 token (token monotonicity only)
	recClear    = 0x03 // no body
	recPushUpd  = 0x05 // encoded update batch
	recAddUser  = 0x06 // u32 user, profile blob
	recDelUser  = 0x07 // u32 user
	recDrainUpd = 0x08 // no body
	recDrainMut = 0x09 // no body
)

// snapshotMagic versions the snapshot encoding.
var snapshotMagic = []byte("KSN1")

// journalThreshold is the journal size past which the next mutation
// cuts a snapshot even without a commit marker.
const journalThreshold = 4 << 20

// durableStore owns a shard's snapshot + journal files. Appends and
// snapshot cuts run under the server's state mutex (see server.go), so
// the store needs no locking of its own.
type durableStore struct {
	dir     string
	journal *os.File
	size    int64
}

func (d *durableStore) snapshotPath() string { return filepath.Join(d.dir, "snapshot") }
func (d *durableStore) journalPath() string  { return filepath.Join(d.dir, "journal") }

func (d *durableStore) close() {
	if d.journal != nil {
		d.journal.Close()
		d.journal = nil
	}
}

// logRecordLocked appends one journal record; caller holds s.mu. A nil
// durable store (no DataDir) journals nothing.
func (s *Server) logRecordLocked(kind byte, body []byte) error {
	d := s.durable
	if d == nil {
		return nil
	}
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, kind)
	payload = append(payload, body...)
	if err := writeFrame(d.journal, payload); err != nil {
		return fmt.Errorf("netstore: journal append: %w", err)
	}
	d.size += int64(4 + len(payload))
	return nil
}

// maybeSnapshotLocked cuts a snapshot when forced (a commit marker) or
// when the journal passed its growth threshold; caller holds s.mu. The
// write order — temp file, rename over the old snapshot, truncate the
// journal — keeps some consistent (snapshot, journal) pair on disk at
// every instant, so a crash anywhere inside recovers exactly.
func (s *Server) maybeSnapshotLocked(force bool) error {
	d := s.durable
	if d == nil || (!force && d.size < journalThreshold) {
		return nil
	}
	state := s.encodeStateLocked()
	tmp := d.snapshotPath() + ".tmp"
	if err := os.WriteFile(tmp, state, 0o644); err != nil {
		return fmt.Errorf("netstore: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, d.snapshotPath()); err != nil {
		return fmt.Errorf("netstore: snapshot install: %w", err)
	}
	if err := d.journal.Truncate(0); err != nil {
		return fmt.Errorf("netstore: journal truncate: %w", err)
	}
	// Truncate moves the size, not the fd's offset: without the seek
	// the next append would land at the old offset and leave a
	// zero-filled hole at the front of the journal, which replay would
	// read as a garbage record.
	if _, err := d.journal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("netstore: journal rewind: %w", err)
	}
	d.size = 0
	return nil
}

// recover loads dir's snapshot and journal into the (pre-listen, still
// single-goroutine) server, truncates any torn journal tail, revokes
// every lease, and leaves the journal open for appending.
func (s *Server) recover(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := &durableStore{dir: dir}
	if snap, err := os.ReadFile(d.snapshotPath()); err == nil {
		if err := s.restoreState(snap); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f, err := os.OpenFile(d.journalPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	good, replayErr := s.replayJournal(f)
	if replayErr != nil {
		f.Close()
		return fmt.Errorf("journal: %w", replayErr)
	}
	// A torn tail is the expected shape of a mid-append crash: the
	// record was never acknowledged, so dropping it is correct. Cut the
	// file back to the last whole record and append from there.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	d.journal = f
	d.size = good
	s.durable = d
	// The fencing: every pre-crash lease dies with the restart.
	s.leases = make(map[uint32]map[uint64]struct{})
	return nil
}

// replayJournal applies every whole record in order and reports the
// offset after the last one. Truncation-shaped read failures mark the
// torn tail; a record that decodes but cannot apply is real corruption
// and fails recovery loudly.
func (s *Server) replayJournal(f *os.File) (good int64, err error) {
	for {
		payload, rerr := readFrame(f)
		if rerr != nil {
			if rerr == io.EOF || errors.Is(rerr, io.ErrUnexpectedEOF) {
				return good, nil
			}
			// readFrame's length-bound failure means a torn length
			// prefix read as garbage — also a tail to cut.
			return good, nil
		}
		if len(payload) == 0 {
			// A zero-length frame is never written (every record
			// carries at least its kind byte); all-zero bytes are the
			// shape of a hole or preallocated tail — cut there.
			return good, nil
		}
		if aerr := s.applyRecord(payload); aerr != nil {
			return good, aerr
		}
		good += int64(4 + len(payload))
	}
}

// applyRecord applies one journal record during replay. Fencing checks
// are bypassed: a journaled record was admitted when first applied, so
// its replay is correct by construction (and the lease map it was
// checked against is rebuilt by the same replay order).
func (s *Server) applyRecord(payload []byte) error {
	kind, body, err := cutByte(payload)
	if err != nil {
		return err
	}
	switch kind {
	case recPut:
		p, rest, err := cutU32(body)
		if err != nil {
			return err
		}
		putKind, rest, err := cutByte(rest)
		if err != nil {
			return err
		}
		token, blob, err := cutU64(rest)
		if err != nil {
			return err
		}
		return s.applyPut(p, putKind, token, append([]byte(nil), blob...))
	case recLease:
		_, rest, err := cutU32(body)
		if err != nil {
			return err
		}
		token, _, err := cutU64(rest)
		if err != nil {
			return err
		}
		if token > s.nextToken {
			s.nextToken = token
		}
		return nil
	case recClear:
		s.base = make(map[uint32][]byte)
		s.partials = make(map[uint32]map[uint64][]byte)
		s.leases = make(map[uint32]map[uint64]struct{})
		return nil
	case recPushUpd:
		s.updates = append(s.updates, append([]byte(nil), body...))
		return nil
	case recAddUser:
		u, blob, err := cutU32(body)
		if err != nil {
			return err
		}
		delete(s.tombstones, u)
		if s.ownsUser(u) {
			s.mutations = append(s.mutations, EncodeMutations([]Mutation{{Op: MutAdd, User: u, Profile: append([]byte(nil), blob...)}}))
		}
		return nil
	case recDelUser:
		u, _, err := cutU32(body)
		if err != nil {
			return err
		}
		s.tombstones[u] = struct{}{}
		if s.ownsUser(u) {
			s.mutations = append(s.mutations, EncodeMutations([]Mutation{{Op: MutDel, User: u}}))
		}
		return nil
	case recDrainUpd:
		s.updates = nil
		return nil
	case recDrainMut:
		s.mutations = nil
		return nil
	default:
		return fmt.Errorf("unknown journal record kind 0x%02x", kind)
	}
}

// applyPut is put()'s state transition without fencing, journaling, or
// device charges — the replay path.
func (s *Server) applyPut(p uint32, kind byte, token uint64, stored []byte) error {
	switch kind {
	case putBase:
		s.base[p] = stored
		delete(s.partials, p)
		delete(s.leases, p)
		s.epochs[p]++
	case putPartial:
		if s.partials[p] == nil {
			s.partials[p] = make(map[uint64][]byte)
		}
		s.partials[p][token] = stored
	case putView, putDeltaView:
		entries, err := DecodeView(stored)
		if err != nil {
			return fmt.Errorf("view of partition %d: %w", p, err)
		}
		viewIdx := make(map[uint32]ViewEntry, len(entries))
		for _, e := range entries {
			viewIdx[e.User] = e
		}
		if kind == putDeltaView {
			s.epochs[p]++
		}
		s.views[p] = serveView{epoch: s.epochs[p], blob: stored, index: viewIdx}
		for u := range viewIdx {
			s.userIdx[u] = p
		}
	case putStale:
		s.staleness = stored
	default:
		return fmt.Errorf("unknown PUT kind 0x%02x", kind)
	}
	return nil
}

// encodeStateLocked serializes the shard's durable state (everything
// except leases and connection bookkeeping) in a deterministic order;
// caller holds s.mu.
func (s *Server) encodeStateLocked() []byte {
	buf := append([]byte(nil), snapshotMagic...)
	buf = appendU64(buf, s.nextToken)
	buf = appendU32(buf, uint32(len(s.staleness)))
	buf = append(buf, s.staleness...)

	eids := sortedU32Keys(len(s.epochs), func(f func(uint32)) {
		for p := range s.epochs {
			f(p)
		}
	})
	buf = appendU32(buf, uint32(len(eids)))
	for _, p := range eids {
		buf = appendU32(buf, p)
		buf = appendU64(buf, s.epochs[p])
	}

	bids := sortedU32Keys(len(s.base), func(f func(uint32)) {
		for p := range s.base {
			f(p)
		}
	})
	buf = appendU32(buf, uint32(len(bids)))
	for _, p := range bids {
		buf = appendU32(buf, p)
		buf = appendU32(buf, uint32(len(s.base[p])))
		buf = append(buf, s.base[p]...)
	}

	pids := sortedU32Keys(len(s.partials), func(f func(uint32)) {
		for p := range s.partials {
			f(p)
		}
	})
	buf = appendU32(buf, uint32(len(pids)))
	for _, p := range pids {
		byToken := s.partials[p]
		tokens := make([]uint64, 0, len(byToken))
		for t := range byToken {
			tokens = append(tokens, t)
		}
		sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
		buf = appendU32(buf, p)
		buf = appendU32(buf, uint32(len(tokens)))
		for _, t := range tokens {
			buf = appendU64(buf, t)
			buf = appendU32(buf, uint32(len(byToken[t])))
			buf = append(buf, byToken[t]...)
		}
	}

	vids := sortedU32Keys(len(s.views), func(f func(uint32)) {
		for p := range s.views {
			f(p)
		}
	})
	buf = appendU32(buf, uint32(len(vids)))
	for _, p := range vids {
		v := s.views[p]
		buf = appendU32(buf, p)
		buf = appendU64(buf, v.epoch)
		buf = appendU32(buf, uint32(len(v.blob)))
		buf = append(buf, v.blob...)
	}

	tids := sortedU32Keys(len(s.tombstones), func(f func(uint32)) {
		for u := range s.tombstones {
			f(u)
		}
	})
	buf = appendU32(buf, uint32(len(tids)))
	for _, u := range tids {
		buf = appendU32(buf, u)
	}

	buf = appendU32(buf, uint32(len(s.updates)))
	for _, b := range s.updates {
		buf = appendU32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	buf = appendU32(buf, uint32(len(s.mutations)))
	for _, b := range s.mutations {
		buf = appendU32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// sortedU32Keys collects keys through the visit callback and sorts
// them — the deterministic-iteration helper the snapshot encoder uses
// over every map (knnlint's maporder rule in spirit: no map range
// order ever reaches the encoding).
func sortedU32Keys(n int, visit func(func(uint32))) []uint32 {
	ids := make([]uint32, 0, n)
	visit(func(id uint32) { ids = append(ids, id) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// restoreState decodes a snapshot into the server's maps, rebuilding
// the derived view indexes.
func (s *Server) restoreState(data []byte) error {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return fmt.Errorf("bad snapshot magic")
	}
	buf := data[len(snapshotMagic):]
	var err error
	if s.nextToken, buf, err = cutU64(buf); err != nil {
		return err
	}
	var n uint32
	cutBlob := func() ([]byte, error) {
		var size uint32
		if size, buf, err = cutU32(buf); err != nil {
			return nil, err
		}
		if uint64(size) > uint64(len(buf)) {
			return nil, fmt.Errorf("snapshot blob claims %d bytes over %d", size, len(buf))
		}
		blob := append([]byte(nil), buf[:size]...)
		buf = buf[size:]
		return blob, nil
	}
	if s.staleness, err = cutBlob(); err != nil {
		return err
	}
	if len(s.staleness) == 0 {
		s.staleness = nil
	}

	if n, buf, err = cutU32(buf); err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var p uint32
		var e uint64
		if p, buf, err = cutU32(buf); err != nil {
			return err
		}
		if e, buf, err = cutU64(buf); err != nil {
			return err
		}
		s.epochs[p] = e
	}

	if n, buf, err = cutU32(buf); err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var p uint32
		if p, buf, err = cutU32(buf); err != nil {
			return err
		}
		blob, berr := cutBlob()
		if berr != nil {
			return berr
		}
		s.base[p] = blob
	}

	if n, buf, err = cutU32(buf); err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var p, nt uint32
		if p, buf, err = cutU32(buf); err != nil {
			return err
		}
		if nt, buf, err = cutU32(buf); err != nil {
			return err
		}
		byToken := make(map[uint64][]byte, nt)
		for j := uint32(0); j < nt; j++ {
			var t uint64
			if t, buf, err = cutU64(buf); err != nil {
				return err
			}
			blob, berr := cutBlob()
			if berr != nil {
				return berr
			}
			byToken[t] = blob
		}
		s.partials[p] = byToken
	}

	if n, buf, err = cutU32(buf); err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var p uint32
		var epoch uint64
		if p, buf, err = cutU32(buf); err != nil {
			return err
		}
		if epoch, buf, err = cutU64(buf); err != nil {
			return err
		}
		blob, berr := cutBlob()
		if berr != nil {
			return berr
		}
		entries, derr := DecodeView(blob)
		if derr != nil {
			return fmt.Errorf("view of partition %d: %w", p, derr)
		}
		viewIdx := make(map[uint32]ViewEntry, len(entries))
		for _, e := range entries {
			viewIdx[e.User] = e
		}
		s.views[p] = serveView{epoch: epoch, blob: blob, index: viewIdx}
		for u := range viewIdx {
			s.userIdx[u] = p
		}
	}

	if n, buf, err = cutU32(buf); err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var u uint32
		if u, buf, err = cutU32(buf); err != nil {
			return err
		}
		s.tombstones[u] = struct{}{}
	}

	if n, buf, err = cutU32(buf); err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		blob, berr := cutBlob()
		if berr != nil {
			return berr
		}
		s.updates = append(s.updates, blob)
	}
	if n, buf, err = cutU32(buf); err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		blob, berr := cutBlob()
		if berr != nil {
			return berr
		}
		s.mutations = append(s.mutations, blob)
	}
	if len(buf) != 0 {
		return fmt.Errorf("snapshot has %d trailing bytes", len(buf))
	}
	return nil
}
