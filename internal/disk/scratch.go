package disk

import (
	"fmt"
	"os"
	"path/filepath"
)

// Scratch manages the on-disk working directory of one engine:
// partition state files, spilled hash-table shards and the profile
// file all live under it, and each is rewritten in place from one
// iteration to the next, so they stay until the engine closes.
//
// The directory is always the scratch's own: a fresh directory made
// inside the one it was given, which Close removes. Two engines handed
// the same directory therefore never see each other's files, and the
// caller's directory holds after Close exactly what it held before.
type Scratch struct {
	dir string
}

// NewScratch creates a private directory inside dir — the system's
// temporary directory when dir is empty — and returns a scratch rooted
// there. A non-empty dir is created if missing and is never removed.
func NewScratch(dir string) (*Scratch, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("disk: ensure scratch parent %s: %w", dir, err)
		}
	}
	own, err := os.MkdirTemp(dir, "knnpc-*")
	if err != nil {
		return nil, fmt.Errorf("disk: create scratch dir: %w", err)
	}
	return &Scratch{dir: own}, nil
}

// Dir reports the scratch root.
func (s *Scratch) Dir() string { return s.dir }

// Path joins name components under the scratch root.
func (s *Scratch) Path(elem ...string) string {
	return filepath.Join(append([]string{s.dir}, elem...)...)
}

// Close removes the scratch directory and every file in it.
func (s *Scratch) Close() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return fmt.Errorf("disk: remove scratch dir %s: %w", s.dir, err)
	}
	return nil
}
