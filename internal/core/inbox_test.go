package core

import (
	"sync"
	"testing"

	"knnpc/internal/delta"
)

// TestInboxFIFO: user mutations drain in put order, and a second drain
// is empty.
func TestInboxFIFO(t *testing.T) {
	var q inbox[delta.Mutation]
	q.put(delta.Mutation{Op: delta.Add, User: 1})
	q.put(delta.Mutation{Op: delta.Delete, User: 2})
	got := q.drain()
	if len(got) != 2 || got[0].User != 1 || got[0].Op != delta.Add || got[1].User != 2 || got[1].Op != delta.Delete {
		t.Fatalf("drained %+v", got)
	}
	if rest := q.drain(); len(rest) != 0 {
		t.Fatalf("second drain returned %+v", rest)
	}
}

// TestInboxConcurrentPutDrain: producers put while a consumer drains;
// every item comes out exactly once, each producer's items in put order,
// and a drain after everything was taken is empty.
func TestInboxConcurrentPutDrain(t *testing.T) {
	type item struct{ producer, seq int }
	const producers, perProducer = 8, 500
	var q inbox[item]
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perProducer {
				q.put(item{p, i})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var got []item
	for drained := false; !drained; {
		select {
		case <-done:
			drained = true
		default:
		}
		got = append(got, q.drain()...)
	}

	if len(got) != producers*perProducer {
		t.Fatalf("drained %d items, want %d", len(got), producers*perProducer)
	}
	next := make([]int, producers)
	for _, it := range got {
		if it.seq != next[it.producer] {
			t.Fatalf("producer %d: got item %d, want %d", it.producer, it.seq, next[it.producer])
		}
		next[it.producer]++
	}
	if rest := q.drain(); len(rest) != 0 {
		t.Fatalf("second drain returned %d items", len(rest))
	}
}
