package core

import (
	"cmp"
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"knnpc/internal/disk"
	"knnpc/internal/knn"
	"knnpc/internal/netstore"
	"knnpc/internal/partition"
	"knnpc/internal/profile"
)

// partStoreMedium opens one placement of the partStore contract over
// conformanceParts partitions and knows how to damage partition id's
// stored blob behind the store's back. local marks the in-process
// placement: a partition's first acquire builds its state, a second
// concurrent holder attaches to the first one's instance, a partition's
// final release emits it, and an acquire beyond the armed plan is
// refused.
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

// openConformance opens store over partitions 0 and 1 of the
// conformance layout — partition 2 is never installed — with states
// built from unitProfiles.
func openConformance(t *testing.T, store partStore) {
	t.Helper()
	vecs := make([]profile.Vector, 6)
	for u := range vecs {
		vecs[u] = profile.FromItems([]uint32{uint32(u) + 1})
	}
	profiles := memCanonical{profile.NewStoreFromVectors(vecs)}
	parts := []*partition.Data{{ID: 0, Members: conformanceMembers}, {ID: 1, Members: []uint32{4, 5}}}
	build := func(p *partition.Data) (*partState, error) { return newPartState(p, profiles, conformanceK) }
	if err := store.open(context.Background(), parts, build, 2); err != nil {
		t.Fatal(err)
	}
}

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
// placement and two plans: after phase 1's open, two tape workers hold
// the same partition at once, fold different candidates into it and
// release; in the "reloaded" plan one more acquire follows, so the
// workers' releases must write their folds back and the reload must see
// them. The emitted rows must then be the accumulators one TopK fed
// every candidate would hold — identically on all three media and both
// plans, whether the final release emitted a shared instance (local) or
// collect merged private partials (network). Locally the first acquire
// builds, the second attaches, the reload reads the one write-back and
// collect builds the untouched partition and reads nothing; over the
// network every acquire and collect reads. It also pins the failure
// edges: a release nobody acquired errors, an acquire beyond the armed
// plan is refused locally, abort returns every staged byte to the
// budget, a partition open never installed cannot be acquired, and a
// damaged blob is rejected by acquire without leaking budget.
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
	openConformance(t, store)
	if snap := stats.Snapshot(); medium.local && snap.ReadOps+snap.WriteOps+snap.Seeks+snap.Loads+snap.Unloads != 0 {
		t.Errorf("open touched the medium: %+v", snap)
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
	var sources [numStateSources]atomic.Int32
	for w := range pushes {
		done.Add(1)
		go func() {
			defer done.Done()
			st, src, err := store.acquire(w, 0)
			held.Done()
			if err != nil {
				errs[w] = err
				return
			}
			sources[src].Add(1)
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
	wantSources := [numStateSources]int32{fromMedium: 2}
	if medium.local {
		wantSources = [numStateSources]int32{fromPeer: 1, fromBuild: 1}
	}
	for src := range sources {
		if got := sources[src].Load(); got != wantSources[src] {
			t.Errorf("%d of the two concurrent acquires had source %d, want %d", got, src, wantSources[src])
		}
	}
	if reload {
		if _, src, err := store.acquire(0, 0); err != nil {
			t.Fatal(err)
		} else if src != fromMedium {
			t.Errorf("the reload after a write-back had source %d, want a medium read", src)
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

	reads, builds, err := store.collect()
	if err != nil {
		t.Fatal(err)
	}
	// Locally every byte written is read back once — the reload reads
	// the one write-back — and collect builds partition 1, reading
	// nothing.
	writes := stats.Snapshot().Unloads
	if medium.local {
		if wantWrites := int64(map[bool]int{false: 0, true: 1}[reload]); writes != wantWrites || reads != 0 || builds != 1 {
			t.Errorf("%d state writes, %d collect reads and %d collect builds, want %d, 0 and 1", writes, reads, builds, wantWrites)
		}
	} else if writes != int64(loads[0]) || reads != 2 || builds != 0 {
		t.Errorf("%d partial writes, %d collect reads and %d collect builds, want %d, 2 and 0", writes, reads, builds, loads[0])
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
		t.Error("acquire of a partition open never installed succeeded")
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

	// A damaged blob is refused by the read that follows a write-back.
	openConformance(t, store)
	store.arm([]int{0, 2, 0}, discardRows)
	if _, _, err := store.acquire(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := store.release(0, 1, true); err != nil {
		t.Fatal(err)
	}
	corrupt(1)
	if _, _, err := store.acquire(0, 1); err == nil {
		t.Error("acquire decoded a corrupt blob")
	}
	if used := budget.Used(); used != 0 {
		t.Errorf("%d budget bytes leaked by the rejected acquire", used)
	}
	store.arm([]int{0, 0, 0}, discardRows)
	if _, _, err := store.collect(); err == nil {
		if medium.local {
			t.Error("collect dropped a written state no acquire read")
		} else {
			t.Error("collect decoded a corrupt blob")
		}
	}
	if err := store.cleanup(); err != nil {
		t.Fatal(err)
	}
	store.arm([]int{1, 1, 1}, discardRows)
	if _, _, err := store.acquire(0, 0); err == nil {
		t.Error("acquire succeeded after cleanup")
	}
}

// TestPartStoreBuildsAtFirstAcquire: in process, the state a fresh
// partition's first acquire builds — and the one collect builds for a
// partition no tape acquires — encodes to exactly the bytes a read of
// phase 1's blob would have decoded: decodePartState(encode(
// newPartState)) re-encoded. Seeded random partitions cover empty
// partitions and members with empty profiles, on both media; the store
// touches neither medium until something is written back.
func TestPartStoreBuildsAtFirstAcquire(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	for trial := 0; trial < 24; trial++ {
		users, m, k := 1+rng.IntN(40), 1+rng.IntN(6), 1+rng.IntN(4)
		vecs := make([]profile.Vector, users)
		for u := range vecs {
			var entries []profile.Entry // a third of the profiles stay empty
			item := uint32(0)
			for range rng.IntN(3) * rng.IntN(5) {
				item += 1 + uint32(rng.IntN(50))
				entries = append(entries, profile.Entry{Item: item, Weight: float32(rng.NormFloat64())})
			}
			v, err := profile.NewVector(entries)
			if err != nil {
				t.Fatal(err)
			}
			vecs[u] = v
		}
		profiles := memCanonical{profile.NewStoreFromVectors(vecs)}
		parts := make([]*partition.Data, m)
		for p := range parts {
			parts[p] = &partition.Data{ID: uint32(p)}
		}
		// Every other trial leaves the last partition empty.
		spread := m
		if trial%2 == 1 && m > 1 {
			spread = m - 1
		}
		for u := range users {
			p := parts[rng.IntN(spread)]
			p.Members = append(p.Members, uint32(u))
		}
		build := func(p *partition.Data) (*partState, error) { return newPartState(p, profiles, k) }
		want := make([][]byte, m)
		for p, data := range parts {
			st, err := build(data)
			if err != nil {
				t.Fatal(err)
			}
			read, err := decodePartState(st.encode(), k)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = read.appendTo(nil)
		}

		for _, onDisk := range []bool{false, true} {
			var scratch *disk.Scratch
			if onDisk {
				var err error
				if scratch, err = disk.NewScratch(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			var stats disk.IOStats
			store := newPartOwner(m, scratch, nil, disk.NewBudget(1<<24), &stats, k)
			if err := store.open(context.Background(), parts, build, 1); err != nil {
				t.Fatal(err)
			}
			loads := make([]int, m)
			for p := range loads {
				loads[p] = rng.IntN(2)
			}
			got := make([][]byte, m)
			store.arm(loads, func(st *partState) error {
				if loads[st.id] == 0 {
					got[st.id] = st.appendTo(nil)
				}
				return nil
			})
			for p, n := range loads {
				if n == 0 {
					continue
				}
				st, src, err := store.acquire(0, uint32(p))
				if err != nil {
					t.Fatal(err)
				}
				if src != fromBuild {
					t.Fatalf("trial %d partition %d: first acquire had source %d, want a build", trial, p, src)
				}
				got[p] = st.appendTo(nil)
				if err := store.release(0, uint32(p), true); err != nil {
					t.Fatal(err)
				}
			}
			reads, builds, err := store.collect()
			if err != nil {
				t.Fatal(err)
			}
			unloaded := int64(m)
			for _, n := range loads {
				unloaded -= int64(n)
			}
			if reads != 0 || builds != unloaded {
				t.Errorf("trial %d: collect read %d and built %d states, want 0 and %d", trial, reads, builds, unloaded)
			}
			for p := range want {
				if !slices.Equal(got[p], want[p]) {
					t.Fatalf("trial %d ondisk=%v partition %d (%d members, %d loads): built state differs from the decoded phase-1 blob",
						trial, onDisk, p, len(parts[p].Members), loads[p])
				}
			}
			if snap := stats.Snapshot(); snap.ReadOps+snap.WriteOps+snap.Seeks+snap.Loads+snap.Unloads != 0 {
				t.Errorf("trial %d ondisk=%v: builds touched the medium: %+v", trial, onDisk, snap)
			}
			if err := store.cleanup(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPartStoreBudgetRefusalStaysFresh: an in-process acquire that the
// memory budget refuses leaves the partition fresh and charges nothing,
// so the retried run — abort, then the same plan armed again — builds it
// again instead of reading a medium that holds nothing.
func TestPartStoreBudgetRefusalStaysFresh(t *testing.T) {
	budget := disk.NewBudget(1 << 20)
	var stats disk.IOStats
	store := newPartOwner(conformanceParts, nil, nil, budget, &stats, conformanceK)
	openConformance(t, store)
	store.arm([]int{1, 1, 0}, discardRows)
	if _, _, err := store.acquire(0, 1); err != nil {
		t.Fatal(err)
	}
	// Fill the budget up to the byte so partition 0's state cannot fit.
	hog := budget.Limit() - budget.Used()
	if err := budget.Reserve(hog); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.acquire(1, 0); !errors.Is(err, disk.ErrBudgetExceeded) {
		t.Fatalf("acquire over a full budget returned %v, want ErrBudgetExceeded", err)
	}
	if g := &store.guards[0]; !g.fresh || g.stored || g.refs != 0 || g.left != 1 {
		t.Fatalf("refused acquire left partition 0 fresh=%v stored=%v refs=%d left=%d", g.fresh, g.stored, g.refs, g.left)
	}
	budget.Release(hog)
	store.abort()
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes charged after abort", used)
	}

	store.arm([]int{1, 1, 0}, discardRows)
	for _, id := range []uint32{0, 1} {
		if _, src, err := store.acquire(0, id); err != nil {
			t.Fatal(err)
		} else if src != fromBuild {
			t.Errorf("retried run's acquire of partition %d had source %d, want a build", id, src)
		}
	}
	if snap := stats.Snapshot(); snap.Loads != 0 || snap.Unloads != 0 {
		t.Errorf("refused and retried builds read %d and wrote %d states", snap.Loads, snap.Unloads)
	}
	store.abort()
}
