package profile

import "fmt"

// Store holds the profile of every user — the P(t) of the paper. The
// in-memory implementation backs small runs and tests; the out-of-core
// engine keeps per-partition profile shards on disk and materializes
// Stores only for loaded partitions.
type Store struct {
	vecs []Vector
}

// NewStore returns a store of n empty profiles.
func NewStore(n int) *Store {
	return &Store{vecs: make([]Vector, n)}
}

// NewStoreFromVectors wraps the given vectors (not copied).
func NewStoreFromVectors(vecs []Vector) *Store {
	return &Store{vecs: vecs}
}

// NumUsers reports the number of users.
func (s *Store) NumUsers() int { return len(s.vecs) }

// Get returns user u's profile. Out-of-range users have empty profiles.
func (s *Store) Get(u uint32) Vector {
	if int(u) >= len(s.vecs) {
		return Vector{}
	}
	return s.vecs[u]
}

// Set replaces user u's profile. It returns an error for out-of-range
// users.
func (s *Store) Set(u uint32, v Vector) error {
	if int(u) >= len(s.vecs) {
		return fmt.Errorf("profile: user %d out of range [0,%d)", u, len(s.vecs))
	}
	s.vecs[u] = v
	return nil
}

// Append adds a new user with the given profile at the next sequential
// id — the delta path's storage half of adding a user (the graph grows
// in lockstep).
func (s *Store) Append(v Vector) {
	s.vecs = append(s.vecs, v)
}

// Clone returns a deep-enough copy: the vector table is copied, the
// immutable vectors are shared.
func (s *Store) Clone() *Store {
	return &Store{vecs: append([]Vector(nil), s.vecs...)}
}

// Vectors returns the store's vector table as a copied slice (the
// immutable vectors themselves are shared). Used to seed disk-backed
// stores.
func (s *Store) Vectors() []Vector {
	return append([]Vector(nil), s.vecs...)
}

// UpdateKind discriminates the operations a queued profile update can
// carry.
type UpdateKind int

// The supported update operations.
const (
	// SetItem inserts or updates one (item, weight) entry.
	SetItem UpdateKind = iota + 1
	// RemoveItem deletes one item from the profile.
	RemoveItem
	// ReplaceProfile swaps the whole profile vector.
	ReplaceProfile
)

// Valid reports whether k is one of the supported update operations.
func (k UpdateKind) Valid() bool { return k >= SetItem && k <= ReplaceProfile }

// Update is one deferred profile change in the queue q of the paper.
type Update struct {
	User   uint32
	Kind   UpdateKind
	Item   uint32  // SetItem, RemoveItem
	Weight float32 // SetItem
	Vector Vector  // ReplaceProfile
}

// Apply returns the profile v becomes under u — the one statement of
// what each update kind means. An update whose Kind is not Valid leaves
// v unchanged; callers check Valid first to refuse or count it.
func (u Update) Apply(v Vector) Vector {
	switch u.Kind {
	case SetItem:
		return v.WithItem(u.Item, u.Weight)
	case RemoveItem:
		return v.WithoutItem(u.Item)
	case ReplaceProfile:
		return u.Vector
	}
	return v
}

// ApplyUpdates folds updates into the store in order, returning how
// many were applied. An unknown kind or out-of-range user aborts;
// earlier updates stay applied.
func ApplyUpdates(s *Store, updates []Update) (int, error) {
	for i, u := range updates {
		if !u.Kind.Valid() {
			return i, fmt.Errorf("profile: unknown update kind %d", u.Kind)
		}
		if err := s.Set(u.User, u.Apply(s.Get(u.User))); err != nil {
			return i, fmt.Errorf("profile: apply update %d: %w", i, err)
		}
	}
	return len(updates), nil
}
