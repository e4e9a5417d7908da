package profile

import (
	"fmt"
	"os"

	"knnpc/internal/disk"
)

// FileStore keeps the canonical profile collection P(t) on disk: one
// flat file of length-prefixed vectors plus an in-memory offset index
// (16 bytes per user). Point reads are positioned reads (each counted
// as a seek + read); updates are applied by a streaming rewrite at the
// iteration boundary, matching the paper's phase 5.
//
// With the engine's ProfilesOnDisk option this makes profile data —
// the memory hog the paper's design targets — disk-resident end to
// end: the only profile bytes in memory belong to the two loaded
// partitions.
type FileStore struct {
	path    string
	stats   *disk.IOStats
	f       *os.File
	offsets []int64
	lengths []int32
}

// CreateFileStore writes all vectors sequentially to path and returns
// the open store.
func CreateFileStore(path string, stats *disk.IOStats, vecs []Vector) (*FileStore, error) {
	s := &FileStore{path: path, stats: stats}
	if err := s.writeAll(vecs); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("profile: open store %s: %w", path, err)
	}
	s.f = f
	return s, nil
}

func (s *FileStore) writeAll(vecs []Vector) error {
	var buf []byte
	offsets := make([]int64, len(vecs))
	lengths := make([]int32, len(vecs))
	for u, v := range vecs {
		offsets[u] = int64(len(buf))
		start := len(buf)
		buf = v.AppendBinary(buf)
		lengths[u] = int32(len(buf) - start)
	}
	if err := disk.WriteFile(s.stats, s.path, buf); err != nil {
		return err
	}
	s.offsets = offsets
	s.lengths = lengths
	return nil
}

// NumUsers reports the number of stored profiles.
func (s *FileStore) NumUsers() int { return len(s.offsets) }

// Profile reads user u's vector with one positioned read.
func (s *FileStore) Profile(u uint32) (Vector, error) {
	if int(u) >= len(s.offsets) {
		return Vector{}, fmt.Errorf("profile: user %d out of range [0,%d)", u, len(s.offsets))
	}
	buf := make([]byte, s.lengths[u])
	if _, err := s.f.ReadAt(buf, s.offsets[u]); err != nil {
		return Vector{}, fmt.Errorf("profile: read user %d: %w", u, err)
	}
	s.stats.AddSeek()
	s.stats.AddRead(int64(len(buf)))
	v, rest, err := DecodeVector(buf)
	if err != nil {
		return Vector{}, fmt.Errorf("profile: decode user %d: %w", u, err)
	}
	if len(rest) != 0 {
		return Vector{}, fmt.Errorf("profile: user %d record has %d trailing bytes", u, len(rest))
	}
	return v, nil
}

// Apply folds updates into the store with one streaming rewrite
// (read every vector, apply its updates in FIFO order, write the new
// file, swap atomically). It returns the number of updates applied.
func (s *FileStore) Apply(updates []Update) (int, error) {
	if len(updates) == 0 {
		return 0, nil
	}
	perUser := make(map[uint32][]Update)
	for i, u := range updates {
		if int(u.User) >= len(s.offsets) {
			return 0, fmt.Errorf("profile: update %d targets user %d outside [0,%d)", i, u.User, len(s.offsets))
		}
		if !u.Kind.Valid() {
			return 0, fmt.Errorf("profile: update %d has unknown kind %d", i, u.Kind)
		}
		perUser[u.User] = append(perUser[u.User], u)
	}

	vecs := make([]Vector, len(s.offsets))
	for u := range vecs {
		v, err := s.Profile(uint32(u))
		if err != nil {
			return 0, err
		}
		for _, upd := range perUser[uint32(u)] {
			v = upd.Apply(v)
		}
		vecs[u] = v
	}

	tmp := s.path + ".tmp"
	old := s.path
	s.path = tmp
	if err := s.writeAll(vecs); err != nil {
		s.path = old
		return 0, err
	}
	s.path = old
	if err := s.f.Close(); err != nil {
		return 0, fmt.Errorf("profile: close old store: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return 0, fmt.Errorf("profile: swap store: %w", err)
	}
	f, err := os.Open(s.path)
	if err != nil {
		return 0, fmt.Errorf("profile: reopen store: %w", err)
	}
	s.f = f
	return len(updates), nil
}

// Extend appends new users' vectors at the next sequential ids with
// one sequential write at the end of the recorded data — the delta path's
// storage half of adding users, far cheaper than the full rewrite
// Apply pays.
func (s *FileStore) Extend(vecs []Vector) error {
	if len(vecs) == 0 {
		return nil
	}
	end := int64(0)
	if n := len(s.offsets); n > 0 {
		end = s.offsets[n-1] + int64(s.lengths[n-1])
	}
	var buf []byte
	offsets := make([]int64, 0, len(vecs))
	lengths := make([]int32, 0, len(vecs))
	for _, v := range vecs {
		offsets = append(offsets, end+int64(len(buf)))
		start := len(buf)
		buf = v.AppendBinary(buf)
		lengths = append(lengths, int32(len(buf)-start))
	}
	// Written at end, not appended: a torn earlier Extend may have left
	// bytes past end that no offset records, and appending behind them
	// would put these vectors where the offsets below do not point.
	f, err := os.OpenFile(s.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("profile: open store for extend: %w", err)
	}
	if _, err := f.WriteAt(buf, end); err != nil {
		f.Close()
		return fmt.Errorf("profile: extend store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("profile: finish extend: %w", err)
	}
	s.stats.AddSeek()
	s.stats.AddWrite(int64(len(buf)))
	s.offsets = append(s.offsets, offsets...)
	s.lengths = append(s.lengths, lengths...)
	return nil
}

// Close releases the underlying file (the data file itself is left in
// place; it lives in the engine's scratch directory).
func (s *FileStore) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("profile: close store: %w", err)
	}
	return nil
}
