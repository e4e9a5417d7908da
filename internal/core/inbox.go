package core

import "sync"

// inbox holds what callers hand the engine until the point that folds
// it in: profile updates until phase 5, user adds and deletes until the
// next delta pass. put is safe from any goroutine; drain takes
// everything put so far, in put order.
type inbox[T any] struct {
	mu      sync.Mutex
	pending []T
}

func (q *inbox[T]) put(v T) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append(q.pending, v)
}

func (q *inbox[T]) drain() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.pending
	q.pending = nil
	return out
}
