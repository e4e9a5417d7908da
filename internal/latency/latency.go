// Package latency provides a fixed-size log-scale histogram for
// request-latency capture under sustained load.
//
// The previous serving-tier capture was a 4096-sample overwrite ring:
// fine for a smoke test, but under a production workload the ring
// holds only the last few milliseconds of traffic, so the stats p99
// jittered with whatever burst happened last. The histogram replaces
// it with log-linear buckets — values below 64ns get exact buckets,
// and above that each power of two is split into 32 linear
// sub-buckets, bounding relative bucket width by 1/32 ≈ 3.1% — so
// recording is three atomic adds, memory is fixed at ~15KB forever,
// and the percentiles converge instead of thrashing as requests
// accumulate into the millions.
//
// Record with Histogram.Observe; read with Histogram.Snapshot, which
// is a consistent-enough copy for monitoring (individual bucket reads
// are atomic; a snapshot taken mid-Observe may be off by the in-flight
// sample). Snapshot.Sub turns two cumulative snapshots into a
// windowed one, which is how the load driver computes per-time-bucket
// percentiles without resetting anything.
package latency

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits sets the resolution: each power of two above the linear
	// region is split into 2^(subBits-1) = 32 sub-buckets, so a
	// bucket is at most 1/32 ≈ 3.1% wide relative to its value.
	subBits = 6
	// sub is the size of the exact linear region: values in [0, 64)
	// nanoseconds each get their own bucket.
	sub = 1 << subBits
	// half is the number of sub-buckets each octave contributes above
	// the linear region (only the upper half of the mantissa range is
	// reachable there).
	half = sub / 2
	// maxShift is the largest octave shift a uint64 nanosecond value
	// can need.
	maxShift = 64 - subBits
	// numBuckets covers every uint64 value: the linear region plus
	// half buckets for each shift 1..maxShift.
	numBuckets = sub + maxShift*half
)

// bucketFor maps a nanosecond value to its bucket index, strictly
// monotone in the value. Values below sub are exact; above, the
// bucket holds [m<<shift, (m+1)<<shift) for mantissa m ∈ [half, sub).
func bucketFor(ns uint64) int {
	if ns < sub {
		return int(ns)
	}
	shift := bits.Len64(ns) - subBits // ≥ 1
	m := int(ns >> shift)             // ∈ [half, sub)
	return sub + (shift-1)*half + (m - half)
}

// bucketValue returns the representative (midpoint) nanosecond value
// of bucket b — the inverse of bucketFor up to bucket width.
func bucketValue(b int) uint64 {
	if b < sub {
		return uint64(b)
	}
	r := b - sub
	shift := r/half + 1
	m := uint64(r%half) + half
	lo := m << shift
	hi := (m+1)<<shift - 1
	return lo + (hi-lo)/2
}

// Histogram is a concurrent-safe cumulative latency histogram.
// The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64 // total nanoseconds, for Mean
}

// Observe records one latency sample. Negative durations count as
// zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(uint64(d))].Add(1)
	h.n.Add(1)
	h.sum.Add(uint64(d))
}

// Snapshot copies the histogram's current state for reading.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		counts: make([]uint64, numBuckets),
		n:      h.n.Load(),
		sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	return s
}

// Snapshot is an immutable copy of a Histogram, or (via Sub) the
// difference of two copies — i.e. one time window of traffic.
type Snapshot struct {
	counts []uint64
	n      uint64
	sum    uint64
}

// Count reports how many samples the snapshot holds.
func (s Snapshot) Count() uint64 { return s.n }

// Mean reports the arithmetic-mean latency, 0 when empty.
func (s Snapshot) Mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(s.sum / s.n)
}

// Sub returns the samples recorded after prev was taken: the windowed
// view s − prev. prev must be an earlier snapshot of the same
// histogram.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		counts: make([]uint64, numBuckets),
		n:      s.n - prev.n,
		sum:    s.sum - prev.sum,
	}
	for i := range s.counts {
		d.counts[i] = s.counts[i] - prev.counts[i]
	}
	return d
}

// Quantile returns the latency at quantile q ∈ [0, 1] (0.99 = p99),
// accurate to the bucket's ≤3.1% relative width. Empty snapshots
// report 0.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based — the same nearest-rank rule
	// a sorted-slice oracle `sorted[int(q*(n-1))]` uses.
	rank := uint64(q*float64(s.n-1)) + 1
	var seen uint64
	for b, c := range s.counts {
		seen += c
		if seen >= rank {
			return time.Duration(bucketValue(b))
		}
	}
	return time.Duration(bucketValue(numBuckets - 1))
}
