//go:build race

package tuples

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation counts that rest on a pool do not
// hold under it.
const raceEnabled = true
