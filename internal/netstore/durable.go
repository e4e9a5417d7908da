package netstore

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Shard durability: one journal file under ServerConfig's DataDir,
// documented byte-for-byte in docs/PROTOCOL.md ("Journal format").
//
// The journal is the shard's request log. A mutating verb's record is
// its request frame — the opcode and the body as received — appended
// under the state mutex before the verb applies (server.go's mutate),
// so journal order is application order and a verb whose append fails
// changes nothing. Replay runs each record through the same parse →
// prepare → apply step a live request takes, without the fencing and
// the device charge.
//
// Compaction rewrites the journal as the frames whose replay rebuilds
// the current state: into journal.tmp, renamed over journal. That is
// one file and one atomic step — a crash anywhere inside leaves the old
// journal or the new one whole. It runs at every commit marker (a
// staleness publish, the last write of an engine iteration) and before
// the next append once journalThreshold bytes were appended since the
// last one.
//
// Recovery = delete a stray journal.tmp, replay journal, truncate a
// torn tail (the shape a mid-append crash leaves), then revoke every
// lease: leases are deliberately volatile, so the restart itself fences
// every pre-crash worker — their tokens are gone, their write-backs
// answer ErrStaleLease, and the engine re-leases through its retry path.
//
// Durability is against process death (kill -9): writes reach the
// kernel on every record — there is no user-space buffering — but no
// fsync is issued, so host-machine crashes are out of scope.

// recEpoch is the compaction's "set partition p's epoch to e" record
// (u32 p, u64 e). No wire verb sets an epoch, so it sits on a byte no
// opcode uses.
const recEpoch = 0x80

// journalThreshold is how many bytes may be appended after a compaction
// before the next append compacts first.
const journalThreshold = 4 << 20

// durableStore owns a shard's journal file. Appends and compactions run
// under the server's state mutex, so the store needs no locking of its
// own.
type durableStore struct {
	dir      string
	journal  journalFile
	appended int64 // bytes appended since the last compaction
	// torn is set once a failed append could not be truncated away: the
	// journal ends in a partial record, so the shard refuses every
	// later mutating verb (fail-stop) rather than journal after it.
	// Recovery drops the partial record as a torn tail.
	torn error
}

// journalFile is what a shard needs of its open journal: an *os.File,
// or in tests one that fails an append partway through.
type journalFile interface {
	io.WriteSeeker
	Truncate(size int64) error
	Close() error
}

func (d *durableStore) path(name string) string { return filepath.Join(d.dir, name) }

func (d *durableStore) close() {
	if d.journal != nil {
		d.journal.Close()
		d.journal = nil
	}
}

// journaled reports whether op's records belong in a journal: every
// mutating verb but RELEASE — a lease dies with the process anyway —
// plus the compaction's epoch record. Replay refuses any other opcode.
func journaled(op byte) bool {
	switch op {
	case opPut, opLease, opClear, opPushUpd, opAddUser, opDelUser, opDrainUpd, opDrainMut, recEpoch:
		return true
	default:
		return false
	}
}

// journalLocked appends c's record — its request frame, plus the token
// a LEASE grants — compacting first once journalThreshold bytes were
// appended since the last compaction; caller holds s.mu. A shard
// without a DataDir journals nothing.
//
// An append that fails partway is truncated back to where it started,
// so the next record follows the last whole one; if even that fails,
// the shard stops accepting mutating verbs, RELEASE included.
func (s *Server) journalLocked(c *command) error {
	d := s.durable
	if d == nil {
		return nil
	}
	if d.torn != nil {
		return d.torn
	}
	if !journaled(c.op) {
		return nil
	}
	if d.appended >= journalThreshold {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	parts := [][]byte{{c.op}, c.body}
	if c.op == opLease {
		parts = append(parts, appendU64(nil, c.token))
	}
	end, err := d.journal.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("netstore: journal append: %w", err)
	}
	if err := writeFrame(d.journal, parts...); err != nil {
		err = fmt.Errorf("netstore: journal append: %w", err)
		if terr := d.journal.Truncate(end); terr != nil {
			d.torn = fmt.Errorf("netstore: shard refuses mutations after a torn journal record it could not truncate (%v): %w", terr, err)
			return d.torn
		}
		return err
	}
	for _, p := range parts {
		d.appended += int64(len(p))
	}
	d.appended += 4
	return nil
}

// compactLocked rewrites the journal as the frames that rebuild the
// shard's current state; caller holds s.mu. The frames go to
// journal.tmp through a fresh descriptor, which is renamed over journal
// and kept for the appends that follow (the old descriptor points at
// the unlinked inode). Until the rename the old journal is the whole
// truth, after it the new one.
func (s *Server) compactLocked() error {
	d := s.durable
	if d == nil {
		return nil
	}
	tmp := d.path("journal.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("netstore: compaction: %w", err)
	}
	w := bufio.NewWriter(f)
	err = s.writeCompactionLocked(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = os.Rename(tmp, d.path("journal"))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp) // recovery deletes a leftover journal.tmp anyway
		return fmt.Errorf("netstore: compaction: %w", err)
	}
	d.journal.Close() // every append through it already reached the kernel
	d.journal = f
	d.appended = 0
	return nil
}

// writeCompactionLocked writes the frames whose replay rebuilds the
// shard's durable state — everything but the leases; caller holds s.mu.
// The order is the one replay needs, and every map is walked in sorted
// key order, so equal states compact to equal bytes.
func (s *Server) writeCompactionLocked(w io.Writer) error {
	var err error
	emit := func(parts ...[]byte) {
		if err == nil {
			err = writeFrame(w, parts...)
		}
	}
	put := func(p uint32, kind byte, token uint64, blob []byte) {
		emit(putRequest(p, kind, token, nil), blob)
	}
	setEpoch := func(p uint32, e uint64) { emit(appendU64(appendU32([]byte{recEpoch}, p), e)) }
	lo := uint32(s.lo) // routes the records that name no partition of their own

	// 1. Token grants resume past every token ever granted.
	if s.nextToken > 0 {
		emit(appendU64(appendU32([]byte{opLease}, lo), s.nextToken))
	}
	// 2. Per partition: the view, stamped at its own epoch; the base,
	// whose PUT bumps the epoch, and its partials; the epoch itself.
	ps := slices.Concat(sortedKeys(s.epochs), sortedKeys(s.base), sortedKeys(s.partials), sortedKeys(s.views))
	slices.Sort(ps)
	for _, p := range slices.Compact(ps) {
		if v, ok := s.views[p]; ok {
			setEpoch(p, v.epoch)
			put(p, putView, 0, v.blob)
		}
		if b, ok := s.base[p]; ok {
			put(p, putBase, 0, b)
		}
		for _, t := range sortedKeys(s.partials[p]) {
			put(p, putPartial, t, s.partials[p][t])
		}
		if e, ok := s.epochs[p]; ok {
			setEpoch(p, e)
		}
	}
	// 3. The staleness document.
	if s.staleness != nil {
		put(lo, putStale, 0, s.staleness)
	}
	// 4. The tombstones, minus the mutations their DELUSERs queue; then
	// the pending mutations in arrival order — an ADDUSER clears the
	// tombstone of a user it re-adds, as it did live.
	for _, u := range sortedKeys(s.tombstones) {
		emit(appendU32([]byte{opDelUser}, u))
	}
	if len(s.tombstones) > 0 {
		emit([]byte{opDrainMut})
	}
	for _, b := range s.mutations {
		muts, derr := DecodeMutations(b)
		if derr != nil {
			return derr
		}
		for _, m := range muts {
			switch m.Op {
			case MutAdd:
				emit(appendU32([]byte{opAddUser}, m.User), m.Profile)
			case MutDel:
				emit(appendU32([]byte{opDelUser}, m.User))
			}
		}
	}
	// 5. The pending update batches.
	for _, b := range s.updates {
		emit([]byte{opPushUpd}, b)
	}
	return err
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// recover replays dir's journal into the (pre-listen, still
// single-goroutine) server, truncates any torn tail, revokes every
// lease, and leaves the journal open for appending.
func (s *Server) recover(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := &durableStore{dir: dir}
	// A snapshot file is the older two-file layout. Starting without it
	// would silently drop the state it holds.
	if _, err := os.Stat(d.path("snapshot")); !errors.Is(err, os.ErrNotExist) {
		if err == nil {
			err = errors.New("a snapshot from an older on-disk format, which this shard cannot read")
		}
		return fmt.Errorf("%s: %w", d.path("snapshot"), err)
	}
	// A journal.tmp is a compaction the crash cut short: the rename never
	// happened, so journal is still whole.
	if err := os.Remove(d.path("journal.tmp")); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f, err := os.OpenFile(d.path("journal"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	good := 0
	if err == nil {
		if good, err = s.replay(data); err != nil {
			err = fmt.Errorf("journal: %w", err)
		}
	}
	// A torn tail is the expected shape of a mid-append crash: the
	// record was never acknowledged, so dropping it is correct.
	if err == nil && good < len(data) {
		err = f.Truncate(int64(good))
	}
	if err != nil {
		f.Close()
		return err
	}
	d.journal = f
	// How much of the file a compaction wrote is unknown, so all of it
	// counts: a shard that restarts often still compacts.
	d.appended = int64(good)
	s.durable = d
	// The fencing: every pre-crash lease dies with the restart.
	s.leases = make(map[uint32]map[uint64]struct{})
	return nil
}

// replay applies data's whole records in order and reports the length
// of the prefix they span. A torn tail — a frame the bytes cannot
// complete, or the zero length of a hole — ends the prefix quietly; a
// whole record that does not parse, or whose opcode is never journaled,
// is corruption and fails recovery loudly.
func (s *Server) replay(data []byte) (good int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := newReader("journal", data)
	for {
		record := r.bytes()
		if r.err != nil || len(record) == 0 {
			return good, nil
		}
		if err := s.replayLocked(record); err != nil {
			return good, fmt.Errorf("record at offset %d: %w", good, err)
		}
		good = len(data) - len(r.buf)
	}
}

// replayLocked runs one record through parse → prepare → apply, with no
// fencing and no device charge: a journaled record was admitted when it
// first applied, against the lease table the same replay rebuilds.
func (s *Server) replayLocked(record []byte) error {
	op, body := record[0], record[1:]
	if !journaled(op) {
		return fmt.Errorf("opcode 0x%02x is never journaled", op)
	}
	c, err := parseCommand(op, body, true)
	if err != nil {
		return err
	}
	if err := c.prepare(); err != nil {
		return err
	}
	s.applyLocked(&c)
	return nil
}
