package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"knnpc/internal/disk"
	"knnpc/internal/knn"
	"knnpc/internal/netstore"
)

// partStoreMedium opens one placement of the partStore contract over
// conformanceParts partitions and knows how to damage partition id's
// stored blob behind the store's back. shares reports whether a second
// concurrent holder attaches to the first one's instance.
type partStoreMedium struct {
	name   string
	shares bool
	open   func(t *testing.T, budget *disk.Budget, stats *disk.IOStats) (store partStore, corrupt func(id uint32))
}

const (
	conformanceK     = 3
	conformanceParts = 3
)

var partStoreMedia = []partStoreMedium{
	{"memory", true, func(t *testing.T, budget *disk.Budget, stats *disk.IOStats) (partStore, func(uint32)) {
		o := newPartOwner(conformanceParts, nil, nil, budget, stats, conformanceK)
		return o, func(id uint32) { o.guards[id].blob = []byte{1, 2, 3} }
	}},
	{"file", true, func(t *testing.T, budget *disk.Budget, stats *disk.IOStats) (partStore, func(uint32)) {
		scratch, err := disk.NewScratch(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		o := newPartOwner(conformanceParts, scratch, nil, budget, stats, conformanceK)
		return o, func(id uint32) {
			if err := disk.WriteFile(stats, o.path(id), []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"loopback net", false, func(t *testing.T, budget *disk.Budget, stats *disk.IOStats) (partStore, func(uint32)) {
		cluster, err := netstore.StartCluster(2, conformanceParts, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cluster.Close() })
		client, err := netstore.Dial(cluster.Addrs(), conformanceParts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return newNetOwner(client, budget, stats, conformanceK), func(id uint32) {
			if err := client.PutBase(id, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

// collectedAcc is one (partition, member, candidates) row of what
// collect emits, in a form that compares across stores.
type collectedAcc struct {
	part, member uint32
	cands        [][2]uint64
}

func collectAll(t *testing.T, store partStore) []collectedAcc {
	t.Helper()
	var out []collectedAcc
	err := store.collect(func(st *partState) error {
		for i, u := range st.members {
			out = append(out, collectedAcc{st.id, u, candidates(&st.accs[i])})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPartStoreConformance runs the partition-store contract over every
// placement: after phase 1's puts, two tape workers hold the same
// partition at once, fold different candidates into it and release;
// collect must then yield the accumulators one TopK fed every candidate
// would hold — identically on all three, whether the workers shared an
// instance (local) or merged private partials (network). It also pins
// the failure edges: a release nobody acquired errors, abort returns
// every staged byte to the budget, an id that was never put cannot be
// acquired, and a damaged blob is rejected by acquire and by collect
// without leaking budget.
func TestPartStoreConformance(t *testing.T) {
	// Worker w pushes pushes[w] into partition 0; member 1 receives more
	// candidates than K across the two, so the merge has to pick.
	type push struct {
		member, cand uint32
		score        float64
	}
	pushes := [2][]push{
		{{1, 10, 0.5}, {1, 11, 0.9}, {2, 12, 0.1}},
		{{1, 13, 0.7}, {1, 14, 0.2}, {3, 15, 0.3}, {2, 12, 0.1}},
	}
	members := []uint32{1, 2, 3}
	want := make(map[uint32]*knn.TopK)
	for _, u := range members {
		tk, err := knn.NewTopK(conformanceK)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = tk
	}
	for _, ps := range pushes {
		for _, p := range ps {
			want[p.member].Push(p.cand, p.score)
		}
	}

	for _, medium := range partStoreMedia {
		t.Run(medium.name, func(t *testing.T) {
			budget := disk.NewBudget(1 << 20)
			var stats disk.IOStats
			store, corrupt := medium.open(t, budget, &stats)
			for id, ms := range [][]uint32{members, {4, 5}} { // partition 2 is never put
				if err := store.put(newTestPartState(t, uint32(id), conformanceK, unitProfiles(ms...))); err != nil {
					t.Fatal(err)
				}
			}

			// Both workers hold partition 0 before either lets go.
			var held, done sync.WaitGroup
			held.Add(2)
			errs := make([]error, 2)
			var attaches atomic.Int32
			for w := range pushes {
				done.Add(1)
				go func() {
					defer done.Done()
					st, attached, err := store.acquire(w, 0)
					if attached {
						attaches.Add(1)
					}
					held.Done()
					if err != nil {
						errs[w] = err
						return
					}
					err = store.fold(0, func() {
						for _, p := range pushes[w] {
							ord, _ := slices.BinarySearch(st.members, p.member)
							st.accs[ord].Push(p.cand, p.score)
						}
					})
					held.Wait()
					if err == nil {
						err = store.release(w, 0, true)
					}
					errs[w] = err
				}()
			}
			done.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
			if want := map[bool]int32{true: 1, false: 0}[medium.shares]; attaches.Load() != want {
				t.Errorf("%d of the two concurrent acquires attached, want %d", attaches.Load(), want)
			}
			if used := budget.Used(); used != 0 {
				t.Fatalf("%d budget bytes still charged after both releases", used)
			}

			got := collectAll(t, store)
			if len(got) != 5 {
				t.Fatalf("collected %d members, want 5 (partitions 0 and 1 in id order)", len(got))
			}
			for i, row := range got[:3] {
				if row.part != 0 || row.member != members[i] {
					t.Fatalf("row %d is partition %d member %d", i, row.part, row.member)
				}
				if w := candidates(want[row.member]); !slices.Equal(row.cands, w) {
					t.Errorf("member %d collected %v, want %v", row.member, row.cands, w)
				}
			}
			for _, row := range got[3:] {
				if row.part != 1 || len(row.cands) != 0 {
					t.Errorf("untouched partition 1 collected as %+v", row)
				}
			}

			if err := store.release(0, 0, true); err == nil {
				t.Error("release without acquire succeeded")
			}
			if _, _, err := store.acquire(0, 2); err == nil {
				t.Error("acquire of a partition that was never put succeeded")
			}

			// abort drops every hold and returns its bytes.
			for w, id := range []uint32{0, 1} {
				if _, _, err := store.acquire(w, id); err != nil {
					t.Fatal(err)
				}
			}
			if budget.Used() == 0 {
				t.Fatal("resident states charged nothing to the budget")
			}
			store.abort()
			if used := budget.Used(); used != 0 {
				t.Errorf("%d budget bytes still charged after abort", used)
			}
			if err := store.release(0, 0, false); err == nil {
				t.Error("release of a hold abort already dropped succeeded")
			}

			corrupt(1)
			if _, _, err := store.acquire(0, 1); err == nil {
				t.Error("acquire decoded a corrupt blob")
			}
			if used := budget.Used(); used != 0 {
				t.Errorf("%d budget bytes leaked by the rejected acquire", used)
			}
			if err := store.collect(func(*partState) error { return nil }); err == nil {
				t.Error("collect decoded a corrupt blob")
			}
			if err := store.cleanup(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := store.acquire(0, 0); err == nil {
				t.Error("acquire succeeded after cleanup")
			}
		})
	}
}
