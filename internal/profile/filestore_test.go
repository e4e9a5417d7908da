package profile

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"knnpc/internal/disk"
)

func newFileStore(t *testing.T, vecs []Vector) (*FileStore, *disk.IOStats) {
	t.Helper()
	var stats disk.IOStats
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "profiles.bin"), &stats, vecs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs, &stats
}

func TestFileStoreRoundTrip(t *testing.T) {
	vecs := []Vector{
		FromItems([]uint32{1, 2, 3}),
		{}, // empty profile
		FromItems([]uint32{9}),
	}
	fs, stats := newFileStore(t, vecs)
	if fs.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d", fs.NumUsers())
	}
	for u, want := range vecs {
		got, err := fs.Profile(uint32(u))
		if err != nil {
			t.Fatalf("Profile(%d): %v", u, err)
		}
		if !got.Equal(want) {
			t.Errorf("user %d round trip mismatch", u)
		}
	}
	if _, err := fs.Profile(99); err == nil {
		t.Error("out-of-range user should fail")
	}
	snap := stats.Snapshot()
	if snap.Seeks < 3 || snap.BytesRead == 0 {
		t.Errorf("point reads should be counted: %+v", snap)
	}
}

func TestFileStoreApply(t *testing.T) {
	fs, _ := newFileStore(t, []Vector{
		FromItems([]uint32{1, 2}),
		FromItems([]uint32{5}),
	})
	n, err := fs.Apply([]Update{
		{User: 0, Kind: SetItem, Item: 7, Weight: 3},
		{User: 0, Kind: RemoveItem, Item: 1},
		{User: 1, Kind: ReplaceProfile, Vector: FromItems([]uint32{42})},
	})
	if err != nil || n != 3 {
		t.Fatalf("Apply = %d, %v", n, err)
	}
	v0, err := fs.Profile(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v0.Weight(7); !ok {
		t.Error("SetItem not applied")
	}
	if _, ok := v0.Weight(1); ok {
		t.Error("RemoveItem not applied")
	}
	v1, err := fs.Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v1.Weight(42); !ok || v1.Len() != 1 {
		t.Error("ReplaceProfile not applied")
	}
}

func TestFileStoreApplyValidation(t *testing.T) {
	fs, _ := newFileStore(t, []Vector{FromItems([]uint32{1})})
	if _, err := fs.Apply([]Update{{User: 9, Kind: SetItem, Item: 1}}); err == nil {
		t.Error("out-of-range user should fail before any rewrite")
	}
	if _, err := fs.Apply([]Update{{User: 0, Kind: UpdateKind(77)}}); err == nil {
		t.Error("unknown kind should fail")
	}
	// Failed validation must leave the store readable.
	if _, err := fs.Profile(0); err != nil {
		t.Errorf("store unreadable after failed Apply: %v", err)
	}
	if n, err := fs.Apply(nil); n != 0 || err != nil {
		t.Errorf("empty Apply should be a no-op: %d, %v", n, err)
	}
}

func TestFileStoreApplyFIFOWithinUser(t *testing.T) {
	fs, _ := newFileStore(t, []Vector{{}})
	_, err := fs.Apply([]Update{
		{User: 0, Kind: SetItem, Item: 1, Weight: 1},
		{User: 0, Kind: SetItem, Item: 1, Weight: 9}, // later wins
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fs.Profile(0)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := v.Weight(1); w != 9 {
		t.Errorf("weight = %v, want 9 (FIFO order)", w)
	}
}

// TestFileStoreApplyMatchesApplyUpdates: the disk-resident P(t) and
// the in-memory one fold the same seeded stream of every update kind,
// users repeated so per-user order matters, into equal profiles.
func TestFileStoreApplyMatchesApplyUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	randomVector := func() Vector {
		entries := make([]Entry, 0, 6)
		for item := uint32(0); item < 24; item++ {
			if rng.Intn(4) == 0 {
				entries = append(entries, Entry{Item: item, Weight: float32(rng.Intn(5) + 1)})
			}
		}
		v, err := NewVector(entries)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	const users = 16
	vecs := make([]Vector, users)
	for u := range vecs {
		vecs[u] = randomVector()
	}
	updates := make([]Update, 400)
	kinds := map[UpdateKind]int{}
	for i := range updates {
		u := Update{User: uint32(rng.Intn(users)), Kind: UpdateKind(rng.Intn(3) + 1), Item: uint32(rng.Intn(24))}
		switch u.Kind {
		case SetItem:
			u.Weight = float32(rng.Intn(9) + 1)
		case ReplaceProfile:
			u.Vector = randomVector()
		}
		kinds[u.Kind]++
		updates[i] = u
	}
	if len(kinds) != 3 {
		t.Fatalf("stream covers kinds %v, want all three", kinds)
	}

	mem := NewStoreFromVectors(append([]Vector(nil), vecs...))
	if n, err := ApplyUpdates(mem, updates); err != nil || n != len(updates) {
		t.Fatalf("ApplyUpdates = %d, %v", n, err)
	}
	fs, _ := newFileStore(t, vecs)
	if n, err := fs.Apply(updates); err != nil || n != len(updates) {
		t.Fatalf("FileStore.Apply = %d, %v", n, err)
	}
	for u := uint32(0); u < users; u++ {
		got, err := fs.Profile(u)
		if err != nil {
			t.Fatal(err)
		}
		if want := mem.Get(u); !got.Equal(want) {
			t.Errorf("user %d: file store holds %v, memory store %v", u, got.Entries(), want.Entries())
		}
	}
}

func TestFileStoreCloseIdempotent(t *testing.T) {
	fs, _ := newFileStore(t, []Vector{{}})
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Errorf("double close should be a no-op: %v", err)
	}
}

func TestFileStoreExtend(t *testing.T) {
	fs, stats := newFileStore(t, []Vector{
		FromItems([]uint32{1, 2}),
		FromItems([]uint32{5}),
	})
	before := stats.Snapshot().BytesWritten
	added := []Vector{FromItems([]uint32{8, 9}), {}}
	if err := fs.Extend(added); err != nil {
		t.Fatal(err)
	}
	if fs.NumUsers() != 4 {
		t.Fatalf("NumUsers = %d after extend", fs.NumUsers())
	}
	// New users read back; old users untouched.
	for u, want := range []Vector{FromItems([]uint32{1, 2}), FromItems([]uint32{5}), added[0], added[1]} {
		got, err := fs.Profile(uint32(u))
		if err != nil {
			t.Fatalf("Profile(%d): %v", u, err)
		}
		if !got.Equal(want) {
			t.Errorf("user %d mismatch after extend", u)
		}
	}
	if stats.Snapshot().BytesWritten <= before {
		t.Error("extend should count its sequential write")
	}
	// Extend then Apply: the rewrite must keep the appended users.
	if _, err := fs.Apply([]Update{{User: 3, Kind: SetItem, Item: 77, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Profile(3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(FromItems([]uint32{77})) {
		t.Errorf("appended user lost across Apply rewrite: %+v", got)
	}
	if err := fs.Extend(nil); err != nil {
		t.Fatal(err) // no-op
	}
}

// TestFileStoreExtendAfterTornWrite: an Extend that failed after a
// partial write leaves bytes past the last recorded vector. The next
// Extend must overwrite them — appending behind them would record
// offsets that point into the junk.
func TestFileStoreExtendAfterTornWrite(t *testing.T) {
	want := []Vector{FromItems([]uint32{1, 2}), FromItems([]uint32{5})}
	fs, _ := newFileStore(t, want[:1])
	if err := fs.Extend(want[1:]); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(fs.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn tail of a failed extend")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want = append(want, FromItems([]uint32{8, 9}), Vector{}, FromItems([]uint32{3}))
	if err := fs.Extend(want[2:]); err != nil {
		t.Fatal(err)
	}
	for u, w := range want {
		got, err := fs.Profile(uint32(u))
		if err != nil {
			t.Fatalf("Profile(%d): %v", u, err)
		}
		if !got.Equal(w) {
			t.Errorf("user %d read back %+v, want %+v", u, got, w)
		}
	}
}
