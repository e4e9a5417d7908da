package profile

import "testing"

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

func TestApplyUpdatesEachKind(t *testing.T) {
	s := NewStore(2)
	s.Set(0, mustVector(t, Entry{1, 1}))
	updates := []Update{
		{User: 0, Kind: SetItem, Item: 2, Weight: 5},
		{User: 0, Kind: RemoveItem, Item: 1},
		{User: 1, Kind: ReplaceProfile, Vector: FromItems([]uint32{7})},
	}

	// Lazy: the store is untouched until the updates are applied.
	if s.Get(0).Len() != 1 || s.Get(1).Len() != 0 {
		t.Fatal("holding updates must not modify the store")
	}

	n, err := ApplyUpdates(s, updates)
	if err != nil || n != 3 {
		t.Fatalf("ApplyUpdates = %d, %v", n, err)
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

func TestApplyUpdatesFIFOOrder(t *testing.T) {
	s := NewStore(1)
	updates := []Update{
		{User: 0, Kind: SetItem, Item: 1, Weight: 1},
		{User: 0, Kind: SetItem, Item: 1, Weight: 2}, // later wins
	}
	if _, err := ApplyUpdates(s, updates); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if w, _ := s.Get(0).Weight(1); w != 2 {
		t.Errorf("item 1 weight = %v, want 2 (last update wins)", w)
	}
}

// TestApplyUpdatesErrorKeepsTail: ApplyUpdates stops at the first bad
// update and reports how many it applied, so updates[n:] is exactly the
// failed update and its unapplied tail.
func TestApplyUpdatesErrorKeepsTail(t *testing.T) {
	s := NewStore(1)
	updates := []Update{
		{User: 0, Kind: SetItem, Item: 1, Weight: 1},
		{User: 9, Kind: SetItem, Item: 1, Weight: 1}, // out of range
		{User: 0, Kind: SetItem, Item: 2, Weight: 2},
	}
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

func TestApplyUpdatesUnknownKind(t *testing.T) {
	s := NewStore(1)
	if _, err := ApplyUpdates(s, []Update{{User: 0, Kind: UpdateKind(42)}}); err == nil {
		t.Error("unknown kind should fail")
	}
	for _, k := range []UpdateKind{0, SetItem, RemoveItem, ReplaceProfile, 42} {
		if got, want := k.Valid(), k == SetItem || k == RemoveItem || k == ReplaceProfile; got != want {
			t.Errorf("UpdateKind(%d).Valid() = %v, want %v", k, got, want)
		}
	}
	v := FromItems([]uint32{3})
	if got := (Update{Kind: UpdateKind(42), Item: 3}).Apply(v); !got.Equal(v) {
		t.Errorf("an invalid update changed the profile to %v", got.Entries())
	}
}
