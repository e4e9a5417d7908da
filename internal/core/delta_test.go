package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"knnpc/internal/dataset"
	"knnpc/internal/exact"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

// runToConvergence drives plain full iterations until no edges change.
func runToConvergence(t *testing.T, eng *Engine, maxIters int) {
	t.Helper()
	for i := 0; i < maxIters; i++ {
		st, err := eng.Iterate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.EdgeChanges == 0 {
			return
		}
	}
}

// TestDeltaZeroMutationsBitIdentity is the tentpole's safety half: an
// engine whose Run interleaves (no-op) ApplyDeltas passes must produce
// byte-identical graphs and identical Loads/Unloads accounting to an
// engine driving plain Iterate calls.
func TestDeltaZeroMutationsBitIdentity(t *testing.T) {
	mk := func() *Engine {
		eng, err := New(testStore(t, 90, 5), Options{K: 5, NumPartitions: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 3; i++ {
		ds, err := a.ApplyDeltas()
		if err != nil {
			t.Fatal(err)
		}
		if *ds != (DeltaStats{}) {
			t.Fatalf("iteration %d: no-op ApplyDeltas reported %+v", i, ds)
		}
		epochBefore := a.Epoch()
		sa, err := a.Iterate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if a.Epoch() != epochBefore+1 {
			t.Fatalf("iteration %d: no-op ApplyDeltas moved the epoch", i)
		}
		sb, err := b.Iterate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Graph().DiffEdges(b.Graph()); d != 0 {
			t.Fatalf("iteration %d: graphs differ by %d edges", i, d)
		}
		if sa.Loads != sb.Loads || sa.Unloads != sb.Unloads || sa.TuplesAdded != sb.TuplesAdded {
			t.Fatalf("iteration %d: accounting diverged: %d/%d/%d vs %d/%d/%d",
				i, sa.Loads, sa.Unloads, sa.TuplesAdded, sb.Loads, sb.Unloads, sb.TuplesAdded)
		}
	}
}

// TestDeltaEquivalence is the tentpole's quality half: adding a batch
// of users through the delta path must land within a documented recall
// margin of rebuilding from scratch with those users present all
// along. The margin below (delta recall ≥ rebuild recall − 0.10, and
// absolutely ≥ 0.50) is the package's documented equivalence bound;
// batch sizes grow to show the bound is not a one-off.
func TestDeltaEquivalence(t *testing.T) {
	const total, k = 150, 5
	fullVecs, _, err := dataset.RatingsProfiles(total, 600, 18, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := exact.Compute(profile.NewStoreFromVectors(fullVecs), exact.Options{K: k, Sim: profile.Cosine{}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild baseline: all users present from the start.
	rebuilt, err := New(profile.NewStoreFromVectors(append([]profile.Vector(nil), fullVecs...)), Options{K: k, NumPartitions: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	runToConvergence(t, rebuilt, 10)
	rebuildRecall := knn.Recall(rebuilt.Graph(), truth)

	for _, batch := range []int{1, 5, 15} {
		base := total - batch
		eng, err := New(profile.NewStoreFromVectors(append([]profile.Vector(nil), fullVecs[:base]...)), Options{K: k, NumPartitions: 6, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		runToConvergence(t, eng, 10)
		for u := base; u < total; u++ {
			eng.EnqueueAddUser(uint32(u), fullVecs[u])
		}
		ds, err := eng.ApplyDeltas()
		if err != nil {
			t.Fatal(err)
		}
		if ds.Adds != batch {
			t.Fatalf("batch %d: ApplyDeltas added %d users", batch, ds.Adds)
		}
		got := eng.Graph()
		if got.NumNodes() != total {
			t.Fatalf("batch %d: graph has %d nodes, want %d", batch, got.NumNodes(), total)
		}
		deltaRecall := knn.Recall(got, truth)
		t.Logf("batch %d: delta recall %.3f (rebuild %.3f, %d sim evals)", batch, deltaRecall, rebuildRecall, ds.SimEvals)
		if deltaRecall < rebuildRecall-0.10 {
			t.Errorf("batch %d: delta recall %.3f more than 0.10 below rebuild %.3f", batch, deltaRecall, rebuildRecall)
		}
		if deltaRecall < 0.50 {
			t.Errorf("batch %d: delta recall %.3f below the 0.50 floor", batch, deltaRecall)
		}
		// The delta path must be cheap: far fewer similarity
		// evaluations than one full iteration's ~n·K·K tuple scoring.
		if full := total * k * k; ds.SimEvals >= full {
			t.Errorf("batch %d: %d sim evals, not cheaper than a full pass (~%d)", batch, ds.SimEvals, full)
		}
		eng.Close()
	}
}

// TestDeltaAddDeleteLifecycle walks the serving contract: an added
// user is immediately queryable, a deleted user misses, a deleted user
// stays gone through the next full iteration, and re-adding
// resurrects.
func TestDeltaAddDeleteLifecycle(t *testing.T) {
	store := testStore(t, 60, 21)
	n := uint32(store.NumUsers())
	eng, err := New(store, Options{K: 4, NumPartitions: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	vec, err := profile.NewVector([]profile.Entry{{Item: 7, Weight: 2}, {Item: 8, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng.EnqueueAddUser(n, vec)
	eng.EnqueueDelUser(3)
	epochBefore := eng.Epoch()
	ds, err := eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Adds != 1 || ds.Deletes != 1 {
		t.Fatalf("stats %+v, want 1 add + 1 delete", ds)
	}
	if eng.Epoch() != epochBefore+1 {
		t.Fatal("delta commit did not bump the epoch")
	}

	// Added user: queryable, with a non-empty neighborhood.
	nbrs, _, err := eng.QueryNeighbors(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) == 0 {
		t.Fatal("added user has no neighbors")
	}
	gotVec, _, err := eng.QueryProfile(n)
	if err != nil {
		t.Fatal(err)
	}
	if !gotVec.Equal(vec) {
		t.Fatal("added user's profile does not round-trip")
	}

	// Deleted user: tombstoned on both query surfaces and absent from
	// every neighbor list.
	if _, _, err := eng.QueryNeighbors(3); err == nil || !strings.Contains(err.Error(), "tombstoned") {
		t.Fatalf("deleted user still served: %v", err)
	}
	if _, _, err := eng.QueryProfile(3); err == nil || !strings.Contains(err.Error(), "tombstoned") {
		t.Fatalf("deleted user's profile still served: %v", err)
	}
	g := eng.Graph()
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if v == 3 {
				t.Fatalf("user %d still links to deleted user 3", u)
			}
		}
	}

	// The next full iteration must keep the tombstone out: the filter
	// drops user 3's tuples in phase 2.
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	g = eng.Graph()
	if len(g.Neighbors(3)) != 0 {
		t.Fatal("full iteration regrew edges for the deleted user")
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if v == 3 {
				t.Fatalf("full iteration relinked user %d to deleted user 3", u)
			}
		}
	}
	if len(g.Neighbors(n)) == 0 {
		t.Fatal("full iteration dropped the added user's neighborhood")
	}

	// Re-adding resurrects.
	eng.EnqueueAddUser(3, vec)
	if _, err := eng.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.QueryNeighbors(3); err != nil {
		t.Fatalf("resurrected user not served: %v", err)
	}
}

// TestDeltaStalenessScheduling: Run skips full iterations while the
// worst partition's drift is under the threshold and schedules one
// once it crosses.
func TestDeltaStalenessScheduling(t *testing.T) {
	store := testStore(t, 60, 9)
	n := uint32(store.NumUsers())
	eng, err := New(store, Options{K: 4, NumPartitions: 4, Seed: 3, StalenessThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// First pass always iterates (nothing committed yet).
	all, err := eng.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("first Run pass ran %d iterations, want 1", len(all))
	}
	if eng.MaxStaleness() != 0 {
		t.Fatalf("staleness %g right after a full iteration", eng.MaxStaleness())
	}

	// One add over the threshold's head: Run applies it and skips.
	vec, err := profile.NewVector([]profile.Entry{{Item: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng.EnqueueAddUser(n, vec)
	all, err = eng.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 0 {
		t.Fatalf("Run iterated %d times under the threshold, want 0", len(all))
	}
	if eng.MaxStaleness() <= 0 {
		t.Fatal("delta commit left staleness at zero")
	}
	if _, _, err := eng.QueryNeighbors(n); err != nil {
		t.Fatalf("user added by the skipped Run pass not served: %v", err)
	}

	// Pile on deletes until the drift crosses; Run then iterates and
	// the clock resets.
	for u := uint32(0); u < 20; u++ {
		eng.EnqueueDelUser(u)
	}
	all, err = eng.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("Run over the threshold ran %d iterations, want 1", len(all))
	}
	if eng.MaxStaleness() != 0 {
		t.Fatalf("full iteration did not reset staleness: %g", eng.MaxStaleness())
	}
	doc := eng.Staleness()
	if doc.Threshold != 0.5 || len(doc.Partitions) == 0 {
		t.Fatalf("staleness doc %+v", doc)
	}
}

// TestDeltaAddOrdering: adds may arrive ahead of their sequential id
// (they journal on different store shards); ApplyDeltas holds them
// across passes until their predecessors land, keeping the id space
// contiguous even when a delete races an add that has not landed yet.
func TestDeltaAddOrdering(t *testing.T) {
	store := testStore(t, 40, 31)
	n := uint32(store.NumUsers())
	vec, err := profile.NewVector([]profile.Entry{{Item: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := New(store.Clone(), Options{K: 3, NumPartitions: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.EnqueueAddUser(n+1, vec) // ahead of its id
	eng.EnqueueAddUser(n, vec)
	ds, err := eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Adds != 2 {
		t.Fatalf("out-of-order adds landed %d users, want 2", ds.Adds)
	}
	if _, _, err := eng.QueryNeighbors(n + 1); err != nil {
		t.Fatal(err)
	}

	// A delete can race an add that has not landed yet: both are held
	// (nothing commits) and the id stays reserved, so the space never
	// develops a permanent hole.
	eng.EnqueueAddUser(n+3, vec) // ahead: n+2 has not arrived
	eng.EnqueueDelUser(n + 3)
	epoch := eng.Epoch()
	if ds, err = eng.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if ds.Adds != 0 || ds.Deletes != 0 || ds.Held != 1 {
		t.Fatalf("racing add+delete reported %+v, want held", ds)
	}
	if eng.Epoch() != epoch {
		t.Fatal("held-only pass committed an epoch")
	}

	// When the predecessor lands, the held pair applies in order: n+2
	// joins the graph live, n+3 takes its id and is tombstoned at once.
	eng.EnqueueAddUser(n+2, vec)
	if ds, err = eng.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if ds.Adds != 2 || ds.Deletes != 1 || ds.Held != 0 {
		t.Fatalf("predecessor arrival reported %+v, want 2 adds / 1 delete", ds)
	}
	if _, _, err := eng.QueryNeighbors(n + 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.QueryNeighbors(n + 3); err == nil {
		t.Fatal("tombstoned user n+3 still answers lookups")
	}

	// A genuine gap is not fatal — the add just stays held until its
	// predecessors arrive (or forever, if they never do).
	eng.EnqueueAddUser(n+6, vec) // next sequential id is n+4
	epoch = eng.Epoch()
	if ds, err = eng.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if ds.Adds != 0 || ds.Held != 1 {
		t.Fatalf("gapped add reported %+v, want held", ds)
	}
	if eng.Epoch() != epoch {
		t.Fatal("gapped add committed an epoch")
	}

	// An upsert replaces an existing user's profile and neighborhood.
	eng2, err := New(store.Clone(), Options{K: 3, NumPartitions: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, err := eng2.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng2.EnqueueAddUser(7, vec)
	ds, err = eng2.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Upserts != 1 || ds.Adds != 0 {
		t.Fatalf("upsert reported %+v", ds)
	}
	gotVec, _, err := eng2.QueryProfile(7)
	if err != nil {
		t.Fatal(err)
	}
	if !gotVec.Equal(vec) {
		t.Fatal("upsert did not replace the profile")
	}
}

// failOnceProfiles is a profile store whose first Apply fails — a
// streaming rewrite that hit ENOSPC — and whose later ones work.
type failOnceProfiles struct {
	canonicalProfiles
	failed bool
}

func (f *failOnceProfiles) Apply(updates []profile.Update) (int, error) {
	if !f.failed {
		f.failed = true
		return 0, errors.New("injected: no space left on device")
	}
	return f.canonicalProfiles.Apply(updates)
}

// TestDeltaCommitWindowSurvivesFailedApply: a profile-store error inside
// the delta commit window parks the batch, and the next pass must be able
// to stage it again — so the failed pass may not have grown the store.
// (With Extend ahead of Apply it had: the retry appended the new user a
// second time and every later id was off by one against the graph.)
func TestDeltaCommitWindowSurvivesFailedApply(t *testing.T) {
	store := testStore(t, 40, 31)
	n := uint32(store.NumUsers())
	eng, err := New(store, Options{K: 3, NumPartitions: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.profiles = &failOnceProfiles{canonicalProfiles: eng.profiles}
	added, err := profile.NewVector([]profile.Entry{{Item: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	upserted, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	eng.EnqueueAddUser(n, upserted)
	eng.EnqueueAddUser(n, added) // upsert of a user this very pass appends
	eng.EnqueueAddUser(7, upserted)
	if _, err := eng.ApplyDeltas(); err == nil {
		t.Fatal("the injected Apply failure did not surface")
	}
	if got := eng.profiles.NumUsers(); got != int(n) {
		t.Fatalf("failed pass left %d profiles, want the %d it started with", got, n)
	}

	ds, err := eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Adds != 1 || ds.Upserts != 2 {
		t.Fatalf("healed pass reported %+v, want the parked add and both upserts", ds)
	}
	if users, nodes := eng.profiles.NumUsers(), eng.Graph().NumNodes(); users != nodes || nodes != int(n)+1 {
		t.Fatalf("after the healed pass: %d profiles, %d graph nodes, want %d of each", users, nodes, n+1)
	}
	for u, want := range map[uint32]profile.Vector{n: added, 7: upserted} {
		got, _, err := eng.QueryProfile(u)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("user %d serves %+v, want %+v", u, got, want)
		}
	}
}

// exactLiveRow is exact.Compute's row for u over the engine's live
// committed users, in engine ids: the live users are renumbered densely
// in id order, which keeps exact.Compute's tie to the smaller id.
func exactLiveRow(t *testing.T, eng *Engine, u uint32) []uint32 {
	t.Helper()
	var ids []uint32
	var vecs []profile.Vector
	at := -1
	for v := uint32(0); int(v) < eng.g.NumNodes(); v++ {
		if eng.dead.Has(v) {
			continue
		}
		vec, err := eng.profiles.Profile(v)
		if err != nil {
			t.Fatal(err)
		}
		if v == u {
			at = len(ids)
		}
		ids = append(ids, v)
		vecs = append(vecs, vec)
	}
	g, err := exact.Compute(profile.NewStoreFromVectors(vecs), exact.Options{K: eng.opts.K, Sim: eng.opts.Similarity})
	if err != nil {
		t.Fatal(err)
	}
	var row []uint32
	for _, v := range g.Neighbors(uint32(at)) {
		row = append(row, ids[v])
	}
	return row
}

// requireIndexCurrent checks the postings index the engine keeps
// between delta passes, when it counts as current, against one built
// fresh from the live committed profiles: scanning each probe returns
// the same users and score bits.
func requireIndexCurrent(t *testing.T, eng *Engine, when string, probes []profile.Vector) {
	t.Helper()
	if eng.index == nil || !eng.indexFresh {
		return
	}
	fresh, _ := profile.NewIndex(eng.opts.Similarity)
	err := fresh.Build(eng.g.NumNodes(), func(v uint32) (profile.Vector, bool, error) {
		if eng.dead.Has(v) {
			return profile.Vector{}, false, nil
		}
		vec, err := eng.profiles.Profile(v)
		return vec, true, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, vec := range probes {
		gotU, gotS := eng.index.Scan(vec)
		gotU, gotS = slices.Clone(gotU), slices.Clone(gotS)
		wantU, wantS := fresh.Scan(vec)
		if !slices.Equal(gotU, wantU) || !equalBits(gotS, wantS) {
			t.Fatalf("%s: kept index scans %v to %v %v, a fresh one to %v %v", when, vec.Entries(), gotU, gotS, wantU, wantS)
		}
	}
}

// equalBits reports whether a and b hold the same float64 bits.
func equalBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// requireInListsCover checks the in-lists the engine keeps between delta
// passes, when they count as current: each user's names every row of
// G(t) that lists it.
func requireInListsCover(t *testing.T, eng *Engine, when string) {
	t.Helper()
	if !eng.inFresh {
		return
	}
	listers := make(map[uint32][]uint32)
	for v := uint32(0); int(v) < eng.g.NumNodes(); v++ {
		for _, w := range eng.g.Neighbors(v) {
			listers[w] = append(listers[w], v)
		}
	}
	for w, want := range listers {
		rows := eng.in.Rows(w)
		for _, v := range want {
			if _, ok := slices.BinarySearch(rows, v); !ok {
				t.Fatalf("%s: row %d lists %d, whose in-list %v does not name it", when, v, w, rows)
			}
		}
	}
}

// TestDeltaInsertsStayExactAcrossAFailedPass runs a seeded script of
// delta passes, each some deletes followed by one add, upsert or
// resurrection, with a full iteration that replaces a profile halfway.
// Each pass's inserted user must hold exact.Compute's row over the live
// users at its commit, and the pass's postings index must end as the
// index of the live profiles: it tracks every add, upsert and delete of
// the pass, and sees the iteration's profile change. A second run makes
// one pass's commit fail (failOnceProfiles) and retries it: it must end
// in the graph of the fault-free run, so nothing the failed pass did to
// the index survives it.
func TestDeltaInsertsStayExactAcrossAFailedPass(t *testing.T) {
	const base, k, passes, faultAt = 150, 5, 24, 9
	vecs, _, err := dataset.RatingsProfiles(base+passes+1, 600, 18, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	run := func(fault bool) string {
		eng, err := New(profile.NewStoreFromVectors(slices.Clone(vecs[:base])), Options{K: k, NumPartitions: 4, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ctx := context.Background()
		if _, err := eng.Iterate(ctx); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		next := uint32(base)
		var replaced profile.Vector // the profile the last resurrection replaced
		for pass := 0; pass < passes; pass++ {
			n := eng.g.NumNodes()
			for range rng.Intn(3) {
				eng.EnqueueDelUser(uint32(rng.Intn(n)))
			}
			u, vec := next, vecs[next]
			switch pass % 3 {
			case 0:
				// Resurrect the lowest tombstoned user, else upsert one.
				u, vec = uint32(rng.Intn(n)), vecs[rng.Intn(len(vecs))]
				for v := uint32(0); int(v) < n; v++ {
					if eng.dead.Has(v) {
						u = v
						break
					}
				}
				if replaced, err = eng.profiles.Profile(u); err != nil {
					t.Fatal(err)
				}
			case 1:
				// A new user with that replaced profile: an index still
				// holding it under the resurrected id would rank that
				// user first.
				vec = replaced
				next++
			default:
				next++
			}
			eng.EnqueueAddUser(u, vec)
			if fault && pass == faultAt {
				eng.profiles = &failOnceProfiles{canonicalProfiles: eng.profiles}
				if _, err := eng.ApplyDeltas(); err == nil {
					t.Fatal("the injected Apply failure did not surface")
				}
			}
			if _, err := eng.ApplyDeltas(); err != nil {
				t.Fatal(err)
			}
			if got, want := eng.g.Neighbors(u), exactLiveRow(t, eng, u); !slices.Equal(got, want) {
				t.Fatalf("fault=%v pass %d: user %d's row %v, exact.Compute's %v", fault, pass, u, got, want)
			}
			requireIndexCurrent(t, eng, fmt.Sprintf("fault=%v pass %d", fault, pass), []profile.Vector{vec})
			if pass == passes/2 {
				// User 0 takes the profile the next add brings, so an
				// index still holding its old one would miss a tie at
				// the top of that add's row.
				eng.EnqueueUpdate(profile.Update{User: 0, Kind: profile.ReplaceProfile, Vector: vecs[next]})
				if _, err := eng.Iterate(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		return graphDigest(eng.g)
	}
	if want, got := run(false), run(true); got != want {
		t.Fatalf("with one failed pass the script ends in graph %s, without it in %s", got, want)
	}
}

// TestDeltaValidation: ApplyDeltas on a closed engine fails.
func TestDeltaValidation(t *testing.T) {
	store := testStore(t, 10, 1)
	eng, err := New(store, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.ApplyDeltas(); err == nil {
		t.Error("ApplyDeltas on closed engine should fail")
	}
}

// TestDeltaGolden pins the delta path's output: a seeded script of
// adds, upserts (live and tombstoned users), adds ahead of their id,
// runs of deletes whose members list one another, a duplicate delete
// and a delete of a held add, interleaved with full iterations, must
// end in one graph and one summed DeltaStats. The values are the ones
// the map-based inserter and the one-user-at-a-time strip produced,
// re-recorded when phase 4 began crediting each scored pair to both
// endpoints (the script's deletes follow the graph, so its counts moved
// with it), when the inserter's pool stopped being restricted to the
// seed neighbors' partitions, and when inserts stopped searching the
// graph and took the exact top-K of the users sharing an item (their
// rows changed, so did the refines they trigger: more touched users
// for fewer evaluations), and when rows began holding their scores
// (refines compare stored scores instead of rescoring, so only SimEvals
// fell; upserts pay to rescore the entries that name them), and when
// an upsert stopped rescoring its own row, which its insert had just
// scored (only SimEvals fell, by one per entry of those rows); any change
// to the delta layer that is meant
// to be output-identical is checked here by go test, not only by the
// benchmark's digest.
func TestDeltaGolden(t *testing.T) {
	const (
		base, poolSize, k = 300, 80, 6
		digest            = "ff0edd96b141699e"
	)
	want := DeltaStats{Adds: 49, Upserts: 16, Deletes: 32, Held: 8, TouchedUsers: 492, SimEvals: 3704}
	vecs, _, err := dataset.RatingsProfiles(base+poolSize, 1200, 20, 6, 77)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(profile.NewStoreFromVectors(append([]profile.Vector(nil), vecs[:base]...)),
		Options{K: k, NumPartitions: 5, TupleBatch: 64, Seed: 19, StalenessThreshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for range 2 {
		if _, err := eng.Iterate(ctx); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(5))
	next := uint32(base) // next sequential id
	pool := vecs[base:]
	var got DeltaStats
	for round := 0; round < 8; round++ {
		n := eng.Graph().NumNodes()
		// Sequential adds; in odd rounds the last two arrive swapped.
		adds := 3 + rng.Intn(4)
		ids := make([]uint32, 0, adds)
		for range adds {
			ids = append(ids, next)
			next++
		}
		if round%2 == 1 {
			ids[adds-1], ids[adds-2] = ids[adds-2], ids[adds-1]
		}
		for _, u := range ids {
			eng.EnqueueAddUser(u, pool[int(u)-base])
		}
		// Upserts of existing users, tombstoned ones included.
		for range 2 {
			eng.EnqueueAddUser(uint32(rng.Intn(n)), vecs[rng.Intn(base)])
		}
		// A run of deletes: u, a user u lists, a user that lists w, w,
		// then u again.
		g := eng.Graph()
		u := uint32(rng.Intn(n))
		run := []uint32{u}
		if nb := g.Neighbors(u); len(nb) > 0 {
			run = append(run, nb[rng.Intn(len(nb))])
		}
		w := uint32(rng.Intn(n))
		for v := 0; v < n; v++ {
			if slices.Contains(g.Neighbors(uint32(v)), w) {
				run = append(run, uint32(v))
				break
			}
		}
		run = append(run, w, u)
		for _, d := range run {
			eng.EnqueueDelUser(d)
		}
		// An add ahead of its id, held into the next round; every
		// third round its delete races it.
		eng.EnqueueAddUser(next+1, pool[int(next+1)-base])
		if round%3 == 2 {
			eng.EnqueueDelUser(next + 1)
		}
		ds, err := eng.ApplyDeltas()
		if err != nil {
			t.Fatal(err)
		}
		got.Adds += ds.Adds
		got.Upserts += ds.Upserts
		got.Deletes += ds.Deletes
		got.Held += ds.Held
		got.TouchedUsers += ds.TouchedUsers
		got.SimEvals += ds.SimEvals
		eng.EnqueueAddUser(next, pool[int(next)-base])
		next += 2
		if round%3 == 1 {
			if _, err := eng.Iterate(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds, err := eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	got.Adds += ds.Adds
	got.Upserts += ds.Upserts
	got.Deletes += ds.Deletes
	got.Held += ds.Held
	got.TouchedUsers += ds.TouchedUsers
	got.SimEvals += ds.SimEvals
	if d := graphDigest(eng.Graph()); d != digest || got != want {
		t.Fatalf("delta golden: digest %s, stats %+v; want %s, %+v", d, got, digest, want)
	}
}

// TestKeptDeltaIndexMatchesFresh runs a seeded script through every path
// that changes P(t), the tombstones or G(t), on the in-process and the
// network store, and after each checks what the engine keeps between
// delta passes: the postings index scans every probe as an index built
// fresh from the live committed profiles does, bit for bit, and each
// in-list names every row of G(t) that lists its user. The script has
// delta passes of adds, upserts, deletes, resurrections and adds held
// ahead of their id; full iterations whose phase 5 applies SetItem,
// RemoveItem and ReplaceProfile updates; a pass whose commit fails on
// failOnceProfiles, and its retry; and SetGraph.
func TestKeptDeltaIndexMatchesFresh(t *testing.T) {
	const base, pool, k, items = 160, 80, 5, 700
	vecs, _, err := dataset.RatingsProfiles(base+pool, items, 16, 4, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := New(profile.NewStoreFromVectors(slices.Clone(vecs[:base])),
				Options{K: k, NumPartitions: 4, TupleBatch: 64, Seed: 9, NetStoreShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(13))
			// check probes the index with the profiles a step brought
			// and a few drawn from the pool.
			check := func(when string, brought []profile.Vector) {
				t.Helper()
				probes := slices.Clone(brought)
				for range 4 {
					probes = append(probes, vecs[rng.Intn(len(vecs))])
				}
				requireIndexCurrent(t, eng, when, probes)
				requireInListsCover(t, eng, when)
			}
			iterate := func(when string) {
				t.Helper()
				n := eng.g.NumNodes()
				var brought []profile.Vector
				for range 6 {
					eng.EnqueueUpdate(profile.Update{
						User: uint32(rng.Intn(n)), Kind: profile.SetItem,
						Item: uint32(rng.Intn(items + 50)), Weight: float32(1 + rng.Intn(5)),
					})
				}
				u := uint32(rng.Intn(n))
				pu, err := eng.profiles.Profile(u)
				if err != nil {
					t.Fatal(err)
				}
				if e := pu.Entries(); len(e) > 0 {
					eng.EnqueueUpdate(profile.Update{User: u, Kind: profile.RemoveItem, Item: e[0].Item})
				}
				replaced := vecs[rng.Intn(len(vecs))]
				eng.EnqueueUpdate(profile.Update{User: uint32(rng.Intn(n)), Kind: profile.ReplaceProfile, Vector: replaced})
				brought = append(brought, replaced)
				if _, err := eng.Iterate(ctx); err != nil {
					t.Fatal(err)
				}
				if eng.inFresh {
					t.Fatalf("%s: in-lists of the replaced G(t) count as current", when)
				}
				if eng.index != nil && !eng.indexFresh {
					t.Fatalf("%s: phase 5 left the index to be rebuilt", when)
				}
				check(when, brought)
			}
			next := uint32(base)
			// pass enqueues three sequential adds, the add after them
			// ahead of its id (held until the next pass brings its
			// predecessor), two deletes, an upsert of a live user and a
			// resurrection of the lowest tombstoned one.
			pass := func(when string) {
				t.Helper()
				n := eng.g.NumNodes()
				var brought []profile.Vector
				add := func(u uint32, vec profile.Vector) {
					eng.EnqueueAddUser(u, vec)
					brought = append(brought, vec)
				}
				for range 3 {
					add(next, vecs[next])
					next++
				}
				add(next+1, vecs[next+1])
				for range 2 {
					eng.EnqueueDelUser(uint32(rng.Intn(n)))
				}
				add(uint32(rng.Intn(n)), vecs[rng.Intn(len(vecs))])
				for v := uint32(0); int(v) < n; v++ {
					if eng.dead.Has(v) {
						add(v, vecs[rng.Intn(len(vecs))])
						break
					}
				}
				ds, err := eng.ApplyDeltas()
				if err != nil {
					t.Fatal(err)
				}
				if ds.Held != 1 {
					t.Fatalf("%s: %d adds held, want 1", when, ds.Held)
				}
				add(next, vecs[next]) // releases the held add next pass
				next += 2
				if !eng.indexFresh || !eng.inFresh {
					t.Fatalf("%s: committed pass left index current %v, in-lists current %v", when, eng.indexFresh, eng.inFresh)
				}
				check(when, brought)
			}

			for i := range 2 {
				iterate(fmt.Sprintf("iteration %d", i))
			}
			for i := range 4 {
				pass(fmt.Sprintf("delta pass %d", i))
			}
			iterate("iteration after the delta passes")
			for i := range 2 {
				pass(fmt.Sprintf("delta pass %d after the iteration", i))
			}

			// A pass whose commit fails leaves both structures stale, and
			// its retry rebuilds them.
			eng.profiles = &failOnceProfiles{canonicalProfiles: eng.profiles}
			eng.EnqueueAddUser(7, vecs[next])
			if _, err := eng.ApplyDeltas(); err == nil {
				t.Fatal("the injected Apply failure did not surface")
			}
			if eng.indexFresh || eng.inFresh {
				t.Fatalf("failed pass left index current %v, in-lists current %v", eng.indexFresh, eng.inFresh)
			}
			pass("retried pass")

			if err := eng.SetGraph(eng.Graph()); err != nil {
				t.Fatal(err)
			}
			if eng.indexFresh || eng.inFresh {
				t.Fatalf("SetGraph left index current %v, in-lists current %v", eng.indexFresh, eng.inFresh)
			}
			pass("pass after SetGraph")
			iterate("last iteration")
			pass("last pass")
		})
	}
}
