// Package delta implements incremental maintenance of a committed KNN
// graph between full five-phase iterations: new users are inserted by
// a greedy search over the committed graph followed by a phase-2-style
// candidate generation around the search's seed neighbors (Debatty et
// al.'s search-then-refine), deleted users are tombstoned and stripped
// from every neighbor list, and a per-partition staleness counter decides —
// against a configurable threshold — when the accumulated drift
// justifies scheduling a real iteration.
//
// The package is deliberately engine-agnostic: it operates on
// graph.KNN plus a profile lookup function, so internal/core can apply
// deltas to a private clone inside its commit window and tests can
// drive the insertion path against in-memory fixtures.
package delta

import "knnpc/internal/profile"

// Op discriminates the two user-level mutations of the delta path.
type Op uint8

// The mutation operations.
const (
	// Add inserts a new user (or upserts an existing one, replacing
	// its profile and recomputing its neighborhood).
	Add Op = iota + 1
	// Delete tombstones a user: its neighbor lists empty, it vanishes
	// from every other user's list, and serve lookups miss.
	Delete
)

// Mutation is one queued user-level change: an Add carries the user's
// full profile vector, a Delete only the id.
type Mutation struct {
	Op      Op
	User    uint32
	Profile profile.Vector // Add only
}
