package disk

import (
	"errors"
	"fmt"
	"sync"
)

// ErrBudgetExceeded is returned by Budget.Reserve when a reservation
// would push usage past the limit.
var ErrBudgetExceeded = errors.New("disk: memory budget exceeded")

// Budget tracks memory charged to in-memory data structures so the
// engine can enforce the paper's "memory constrained machine" premise:
// the profiles of at most two partitions (plus fixed-size bookkeeping)
// may be resident at once. A limit of 0 or less means unlimited.
type Budget struct {
	mu    sync.Mutex
	limit int64
	used  int64
	peak  int64
}

// NewBudget returns a budget with the given byte limit (≤0 = unlimited).
func NewBudget(limit int64) *Budget {
	return &Budget{limit: limit}
}

// Limit reports the configured limit.
func (b *Budget) Limit() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.limit
}

// Used reports the currently reserved bytes.
func (b *Budget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Peak reports the most bytes reserved at once since the budget was
// made or ResetPeak last ran.
func (b *Budget) Peak() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// ResetPeak restarts the high-water mark Peak reports at the bytes
// reserved now, so a caller can read the peak of one stretch of work.
func (b *Budget) ResetPeak() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.peak = b.used
}

// Reserve charges n bytes. It fails with ErrBudgetExceeded (leaving
// usage unchanged) if the reservation would exceed the limit.
func (b *Budget) Reserve(n int64) error {
	if n < 0 {
		return fmt.Errorf("disk: negative reservation %d", n)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit > 0 && b.used+n > b.limit {
		return fmt.Errorf("%w: used %d + want %d > limit %d", ErrBudgetExceeded, b.used, n, b.limit)
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	return nil
}

// Release returns n bytes to the budget. Releasing more than is used
// clamps to zero (and is a caller bug, but must not corrupt accounting).
func (b *Budget) Release(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
}
