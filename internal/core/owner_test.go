package core

import (
	"cmp"
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
// stored blob behind the store's back. local marks the in-process
// placement: a second concurrent holder attaches to the first one's
// instance, a partition's final release emits it, and an acquire beyond
// the armed plan is refused.
type partStoreMedium struct {
	name  string
	local bool
	open  func(t *testing.T, budget *disk.Budget, stats *disk.IOStats) (store partStore, corrupt func(id uint32))
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

// collectedAcc is one (partition, member, candidates) row of what a
// store emits, in a form that compares across stores.
type collectedAcc struct {
	part, member uint32
	cands        [][2]uint64
}

// rowRecorder is an emitter for arm that records every emitted state's
// rows. Releases may emit from several goroutines at once.
type rowRecorder struct {
	mu   sync.Mutex
	rows []collectedAcc
}

func (r *rowRecorder) emit(st *partState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, u := range st.members {
		r.rows = append(r.rows, collectedAcc{st.id, u, candidates(&st.accs[i])})
	}
	return nil
}

// sorted returns the recorded rows ordered by partition and member:
// releases and collect emit in different orders on different media.
func (r *rowRecorder) sorted() []collectedAcc {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Clone(r.rows)
	slices.SortFunc(out, func(a, b collectedAcc) int {
		return cmp.Or(cmp.Compare(a.part, b.part), cmp.Compare(a.member, b.member))
	})
	return out
}

func discardRows(*partState) error { return nil }

// conformancePush is one accumulator push of TestPartStoreConformance.
type conformancePush struct {
	member, cand uint32
	score        float64
}

// Worker w pushes conformancePushes[w] into partition 0, whose members
// are conformanceMembers; member 1 receives more candidates than K
// across the two, so the merge has to pick.
var (
	conformancePushes = [2][]conformancePush{
		{{1, 10, 0.5}, {1, 11, 0.9}, {2, 12, 0.1}},
		{{1, 13, 0.7}, {1, 14, 0.2}, {3, 15, 0.3}, {2, 12, 0.1}},
	}
	conformanceMembers = []uint32{1, 2, 3}
)

// TestPartStoreConformance runs the partition-store contract over every
// placement and two plans: after phase 1's puts, two tape workers hold
// the same partition at once, fold different candidates into it and
// release; in the "reloaded" plan one more acquire follows, so the
// workers' releases must write their folds back and the reload must see
// them. The emitted rows must then be the accumulators one TopK fed
// every candidate would hold — identically on all three media and both
// plans, whether the final release emitted a shared instance (local) or
// collect merged private partials (network) — and collect must read
// only what no release emitted. It also pins the failure edges: a
// release nobody acquired errors, an acquire beyond the armed plan is
// refused locally, abort returns every staged byte to the budget, an id
// that was never put cannot be acquired, and a damaged blob is rejected
// by acquire and by collect without leaking budget.
func TestPartStoreConformance(t *testing.T) {
	for _, medium := range partStoreMedia {
		t.Run(medium.name, func(t *testing.T) {
			t.Run("emitted at last release", func(t *testing.T) { checkPartStore(t, medium, false) })
			t.Run("reloaded", func(t *testing.T) { checkPartStore(t, medium, true) })
		})
	}
}

func checkPartStore(t *testing.T, medium partStoreMedium, reload bool) {
	members, pushes := conformanceMembers, conformancePushes
	want := make(map[uint32]*knn.TopK)
	for _, u := range members {
		want[u] = mustTopK(t, conformanceK)
	}
	for _, ps := range pushes {
		for _, p := range ps {
			want[p.member].Push(p.cand, p.score)
		}
	}

	budget := disk.NewBudget(1 << 20)
	var stats disk.IOStats
	store, corrupt := medium.open(t, budget, &stats)
	for id, ms := range [][]uint32{members, {4, 5}} { // partition 2 is never put
		if err := store.put(newTestPartState(t, uint32(id), conformanceK, unitProfiles(ms...))); err != nil {
			t.Fatal(err)
		}
	}
	loads := []int{2, 0, 0}
	if reload {
		loads[0] = 3
	}
	var rec rowRecorder
	store.arm(loads, rec.emit)

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
	if want := map[bool]int32{true: 1, false: 0}[medium.local]; attaches.Load() != want {
		t.Errorf("%d of the two concurrent acquires attached, want %d", attaches.Load(), want)
	}
	if reload {
		if _, _, err := store.acquire(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := store.release(0, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes still charged after every release", used)
	}
	emittedAtRelease := len(rec.sorted())
	if medium.local && emittedAtRelease != len(members) || !medium.local && emittedAtRelease != 0 {
		t.Errorf("releases emitted %d rows", emittedAtRelease)
	}

	reads, err := store.collect()
	if err != nil {
		t.Fatal(err)
	}
	// Locally every byte written is read back once: the reload
	// reads the one write-back, and collect only partition 1.
	writes := stats.Snapshot().Unloads
	if medium.local {
		if wantWrites := int64(map[bool]int{false: 0, true: 1}[reload]); writes != wantWrites || reads != 1 {
			t.Errorf("%d state writes and %d collect reads, want %d and 1", writes, reads, wantWrites)
		}
	} else if writes != int64(loads[0]) || reads != 2 {
		t.Errorf("%d partial writes and %d collect reads, want %d and 2", writes, reads, loads[0])
	}
	got := rec.sorted()
	if len(got) != 5 {
		t.Fatalf("emitted %d members, want 5 (partitions 0 and 1)", len(got))
	}
	for i, row := range got[:3] {
		if row.part != 0 || row.member != members[i] {
			t.Fatalf("row %d is partition %d member %d", i, row.part, row.member)
		}
		if w := candidates(want[row.member]); !slices.Equal(row.cands, w) {
			t.Errorf("member %d emitted %v, want %v", row.member, row.cands, w)
		}
	}
	for _, row := range got[3:] {
		if row.part != 1 || len(row.cands) != 0 {
			t.Errorf("untouched partition 1 emitted as %+v", row)
		}
	}

	if err := store.release(0, 0, true); err == nil {
		t.Error("release without acquire succeeded")
	}
	if medium.local {
		if _, _, err := store.acquire(0, 0); err == nil {
			t.Error("acquire beyond the armed plan succeeded")
		}
	}
	store.arm([]int{1, 1, 1}, discardRows)
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
	store.arm([]int{1, 1, 1}, discardRows)
	if _, _, err := store.acquire(0, 1); err == nil {
		t.Error("acquire decoded a corrupt blob")
	}
	if used := budget.Used(); used != 0 {
		t.Errorf("%d budget bytes leaked by the rejected acquire", used)
	}
	store.arm([]int{0, 0, 0}, discardRows)
	if _, err := store.collect(); err == nil {
		t.Error("collect decoded a corrupt blob")
	}
	if err := store.cleanup(); err != nil {
		t.Fatal(err)
	}
	store.arm([]int{1, 1, 1}, discardRows)
	if _, _, err := store.acquire(0, 0); err == nil {
		t.Error("acquire succeeded after cleanup")
	}
}
