// Package delta implements incremental maintenance of a committed KNN
// graph between full five-phase iterations: a new user gets the exact
// top-K of the live users — through a profile.Index, only the users
// sharing an item with it are scored, the exact end of Debatty et al.'s
// quality-against-evaluations curve — and each chosen neighbor then
// reconsiders its own list with the new user, comparing the scores its
// row stores; deleted users are tombstoned and stripped from every
// neighbor list, visiting only the rows that may list them when the
// caller keeps in-lists (InLists); and a per-partition staleness
// counter decides — against a configurable threshold — when the
// accumulated drift justifies scheduling a real iteration.
//
// The package is deliberately engine-agnostic: it operates on
// graph.KNN plus a profile lookup function, an optional index and
// optional in-lists, so internal/core can apply deltas to a private
// copy inside its commit window and tests can drive the insertion path
// against in-memory fixtures.
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
