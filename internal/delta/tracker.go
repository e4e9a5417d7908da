package delta

// Counters is one partition's staleness accounting since the last full
// five-phase iteration.
type Counters struct {
	// Adds counts users inserted into the partition by the delta path.
	Adds uint64
	// Deletes counts users tombstoned out of the partition.
	Deletes uint64
	// TouchedEdges estimates the directed edges the delta path changed
	// in the partition (insertions into existing lists, strips of
	// deleted ids).
	TouchedEdges uint64
	// Members is the partition's member count at the last full
	// iteration — the score's denominator, so a thousand-user
	// partition tolerates more drift than a ten-user one.
	Members uint64
}

// Tracker accumulates per-partition staleness between full iterations.
// Score normalizes the drift per partition:
//
//	score = (Adds + Deletes + TouchedEdges/K) / max(1, Members)
//
// A full iteration calls ResetFull, zeroing every counter and
// re-reading the membership; the engine compares MaxScore against its
// configured threshold to decide whether a Run pass needs a real
// iteration. Tracker is not safe for concurrent use — the engine
// mutates it only from Iterate/ApplyDeltas, which are never
// concurrent by the engine's contract.
type Tracker struct {
	k        int
	lastFull uint64
	parts    []Counters
}

// NewTracker returns a tracker with no partitions; it starts counting
// after the first ResetFull. k is the graph's neighbor bound (the
// TouchedEdges normalizer, ≥ 1).
func NewTracker(k int) *Tracker {
	if k < 1 {
		k = 1
	}
	return &Tracker{k: k}
}

// ResetFull records that a full iteration committed at the given
// epoch: every counter resets and the membership denominator is
// re-read from the iteration's partition sizes.
func (t *Tracker) ResetFull(members []int, epoch uint64) {
	t.parts = make([]Counters, len(members))
	for p, m := range members {
		t.parts[p].Members = uint64(m)
	}
	t.lastFull = epoch
}

// grow extends the partition table so out-of-range records (a user
// delta-assigned to a partition the last full iteration did not have)
// count rather than panic.
func (t *Tracker) grow(p int) {
	for len(t.parts) <= p {
		t.parts = append(t.parts, Counters{})
	}
}

// RecordAdd books one user insertion into partition p, with the number
// of existing-user edges the insertion's refine pass changed.
func (t *Tracker) RecordAdd(p, touchedEdges int) {
	if p < 0 {
		return
	}
	t.grow(p)
	t.parts[p].Adds++
	t.parts[p].TouchedEdges += uint64(touchedEdges)
}

// RecordDelete books one user tombstoned out of partition p, with the
// number of neighbor-list entries the strip removed.
func (t *Tracker) RecordDelete(p, touchedEdges int) {
	if p < 0 {
		return
	}
	t.grow(p)
	t.parts[p].Deletes++
	t.parts[p].TouchedEdges += uint64(touchedEdges)
}

// LastFullEpoch reports the epoch of the last full iteration (0 before
// the first ResetFull).
func (t *Tracker) LastFullEpoch() uint64 { return t.lastFull }

// Score reports partition p's normalized staleness (0 for unknown
// partitions).
func (t *Tracker) Score(p int) float64 {
	if p < 0 || p >= len(t.parts) {
		return 0
	}
	c := t.parts[p]
	members := c.Members
	if members < 1 {
		members = 1
	}
	drift := float64(c.Adds) + float64(c.Deletes) + float64(c.TouchedEdges)/float64(t.k)
	return drift / float64(members)
}

// MaxScore reports the worst partition's staleness — what the engine
// compares against its threshold.
func (t *Tracker) MaxScore() float64 {
	worst := 0.0
	for p := range t.parts {
		if s := t.Score(p); s > worst {
			worst = s
		}
	}
	return worst
}

// Snapshot returns a copy of the per-partition counters.
func (t *Tracker) Snapshot() []Counters {
	return append([]Counters(nil), t.parts...)
}
