package profile

import (
	"sync"
	"testing"
)

func TestStoreGetSet(t *testing.T) {
	s := NewStore(3)
	if s.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d, want 3", s.NumUsers())
	}
	v := mustVector(t, Entry{1, 2})
	if err := s.Set(1, v); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if !s.Get(1).Equal(v) {
		t.Error("Get(1) should return the stored vector")
	}
	if s.Get(0).Len() != 0 {
		t.Error("unset profile should be empty")
	}
	if s.Get(99).Len() != 0 {
		t.Error("out-of-range Get should be empty")
	}
	if err := s.Set(99, v); err == nil {
		t.Error("out-of-range Set should fail")
	}
}

func TestStoreCloneIndependence(t *testing.T) {
	s := NewStore(2)
	s.Set(0, mustVector(t, Entry{1, 1}))
	c := s.Clone()
	c.Set(0, mustVector(t, Entry{9, 9}))
	if w, _ := s.Get(0).Weight(1); w != 1 {
		t.Error("mutating the clone must not affect the original")
	}
}

func TestUpdateQueueLazyApply(t *testing.T) {
	s := NewStore(2)
	s.Set(0, mustVector(t, Entry{1, 1}))
	q := NewUpdateQueue()

	q.Enqueue(Update{User: 0, Kind: SetItem, Item: 2, Weight: 5})
	q.Enqueue(Update{User: 0, Kind: RemoveItem, Item: 1})
	q.Enqueue(Update{User: 1, Kind: ReplaceProfile, Vector: FromItems([]uint32{7})})

	// Lazy: the store is untouched until the drained updates are applied.
	if s.Get(0).Len() != 1 || s.Get(1).Len() != 0 {
		t.Fatal("enqueue must not modify the store")
	}
	if q.Len() != 3 {
		t.Fatalf("queue length = %d, want 3", q.Len())
	}

	n, err := ApplyUpdates(s, q.Drain())
	if err != nil || n != 3 {
		t.Fatalf("ApplyUpdates = %d, %v", n, err)
	}
	if q.Len() != 0 {
		t.Error("queue should be empty after Drain")
	}
	got0 := s.Get(0)
	if got0.Len() != 1 {
		t.Fatalf("user 0 profile = %v", got0.Entries())
	}
	if w, ok := got0.Weight(2); !ok || w != 5 {
		t.Errorf("user 0 item 2 = %v,%v, want 5,true", w, ok)
	}
	if _, ok := s.Get(1).Weight(7); !ok {
		t.Error("user 1 should have replaced profile with item 7")
	}
}

func TestUpdateQueueFIFOOrder(t *testing.T) {
	s := NewStore(1)
	q := NewUpdateQueue()
	q.Enqueue(Update{User: 0, Kind: SetItem, Item: 1, Weight: 1})
	q.Enqueue(Update{User: 0, Kind: SetItem, Item: 1, Weight: 2}) // later wins
	drained := q.Drain()
	if len(drained) != 2 || drained[0].Weight != 1 || drained[1].Weight != 2 {
		t.Fatalf("Drain = %+v, want the two updates in enqueue order", drained)
	}
	if _, err := ApplyUpdates(s, drained); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if w, _ := s.Get(0).Weight(1); w != 2 {
		t.Errorf("item 1 weight = %v, want 2 (last update wins)", w)
	}
}

// TestUpdateQueueErrorKeepsTail: ApplyUpdates stops at the first bad
// update and reports how many it applied, so updates[n:] is exactly the
// failed update and its unapplied tail.
func TestUpdateQueueErrorKeepsTail(t *testing.T) {
	s := NewStore(1)
	q := NewUpdateQueue()
	q.Enqueue(Update{User: 0, Kind: SetItem, Item: 1, Weight: 1})
	q.Enqueue(Update{User: 9, Kind: SetItem, Item: 1, Weight: 1}) // out of range
	q.Enqueue(Update{User: 0, Kind: SetItem, Item: 2, Weight: 2})

	updates := q.Drain()
	n, err := ApplyUpdates(s, updates)
	if err == nil {
		t.Fatal("ApplyUpdates should fail on out-of-range user")
	}
	if n != 1 {
		t.Fatalf("applied = %d, want 1 before the failure", n)
	}
	if tail := updates[n:]; len(tail) != 2 || tail[0].User != 9 {
		t.Fatalf("tail = %+v, want the failed update and the one after it", tail)
	}
	// The first update landed; the one after the failure did not.
	if _, ok := s.Get(0).Weight(1); !ok {
		t.Error("update before the failure should be applied")
	}
	if _, ok := s.Get(0).Weight(2); ok {
		t.Error("update after the failure must not be applied")
	}
}

func TestUpdateQueueUnknownKind(t *testing.T) {
	s := NewStore(1)
	q := NewUpdateQueue()
	q.Enqueue(Update{User: 0, Kind: UpdateKind(42)})
	if _, err := ApplyUpdates(s, q.Drain()); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestUpdateQueueConcurrentEnqueue(t *testing.T) {
	q := NewUpdateQueue()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q.Enqueue(Update{User: 0, Kind: SetItem, Item: uint32(i), Weight: 1})
			}
		}()
	}
	wg.Wait()
	if got := q.Len(); got != workers*perWorker {
		t.Errorf("queue length = %d, want %d", got, workers*perWorker)
	}
}
