package knnpc

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"knnpc/internal/dataset"
	"knnpc/internal/pigraph"
)

func testProfiles(t *testing.T, users int) [][]Item {
	t.Helper()
	vecs, _, err := dataset.RatingsProfiles(users, 400, 15, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Item, len(vecs))
	for u, v := range vecs {
		for _, e := range v.Entries() {
			out[u] = append(out[u], Item{ID: e.Item, Weight: e.Weight})
		}
	}
	return out
}

func TestNewValidatesConfig(t *testing.T) {
	profiles := testProfiles(t, 20)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"missing K", Config{}},
		{"bad strategy", Config{K: 3, PartitionStrategy: "metis"}},
		{"bad heuristic", Config{K: 3, Heuristic: "random"}},
		{"bad similarity", Config{K: 3, Similarity: "euclid"}},
		{"bad slots", Config{K: 3, Slots: 1}},
		{"bad prefetch", Config{K: 3, PrefetchDepth: -1}},
		{"bad disk model", Config{K: 3, EmulateDisk: "tape"}},
		{"emulate without ondisk", Config{K: 3, EmulateDisk: "hdd"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(profiles, tt.cfg); err == nil {
				t.Error("want config error")
			}
		})
	}
}

// TestConfigHeuristicDocListsEveryName keeps Config.Heuristic's godoc in
// step with the heuristics HeuristicByName resolves.
func TestConfigHeuristicDocListsEveryName(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "knnpc.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	ast.Inspect(f, func(n ast.Node) bool {
		if field, ok := n.(*ast.Field); ok && len(field.Names) == 1 && field.Names[0].Name == "Heuristic" {
			doc = field.Doc.Text()
		}
		return doc == ""
	})
	if doc == "" {
		t.Fatal("Config.Heuristic has no doc comment")
	}
	for _, h := range pigraph.AllHeuristics() {
		if !strings.Contains(doc, strconv.Quote(h.Name())) {
			t.Errorf("Config.Heuristic's doc does not list %q:\n%s", h.Name(), doc)
		}
	}
}

func TestNewRejectsDuplicateItems(t *testing.T) {
	profiles := [][]Item{
		{{ID: 1, Weight: 1}, {ID: 1, Weight: 2}},
		{{ID: 2, Weight: 1}},
	}
	if _, err := New(profiles, Config{K: 1}); err == nil {
		t.Error("duplicate items in one profile should fail")
	}
}

func TestSystemLifecycle(t *testing.T) {
	profiles := testProfiles(t, 80)
	sys, err := New(profiles, Config{K: 5, Partitions: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	rep, err := sys.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iteration != 0 || rep.LoadUnloadOps == 0 || rep.TuplesScored == 0 {
		t.Errorf("report looks empty: %+v", rep)
	}
	if rep.Duration <= 0 {
		t.Error("duration should be positive")
	}

	nbrs := sys.Neighbors(0)
	if len(nbrs) == 0 || len(nbrs) > 5 {
		t.Errorf("Neighbors(0) = %v", nbrs)
	}
	lists := sys.NeighborLists()
	if len(lists) != 80 {
		t.Errorf("NeighborLists has %d users", len(lists))
	}
}

func TestSystemRunAndRecall(t *testing.T) {
	profiles := testProfiles(t, 120)
	cfg := Config{K: 5, Partitions: 5, Workers: 2, Seed: 3}
	sys, err := New(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	reports, err := sys.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no iterations ran")
	}
	recall, err := sys.Recall(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recall < 0.4 {
		t.Errorf("recall %.3f too low after %d iterations", recall, len(reports))
	}
}

func TestSystemOnDisk(t *testing.T) {
	profiles := testProfiles(t, 60)
	sys, err := New(profiles, Config{
		K:          4,
		Partitions: 4,
		OnDisk:     true,
		ScratchDir: t.TempDir(),
		Heuristic:  "Seq.",
		Similarity: "jaccard",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSystemFullyOnDisk(t *testing.T) {
	profiles := testProfiles(t, 60)
	sys, err := New(profiles, Config{
		K:              4,
		Partitions:     4,
		OnDisk:         true,
		ProfilesOnDisk: true,
		ScratchDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sys.SetProfileItem(3, 7777, 2)
	rep, err := sys.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesApplied != 1 {
		t.Errorf("UpdatesApplied = %d, want 1", rep.UpdatesApplied)
	}
	after, err := sys.Profile(3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range after {
		if it.ID == 7777 {
			found = true
		}
	}
	if !found {
		t.Error("update should reach the disk-resident profile store")
	}
}

func TestSystemProfileUpdates(t *testing.T) {
	profiles := testProfiles(t, 30)
	sys, err := New(profiles, Config{K: 3, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sys.SetProfileItem(5, 12345, 4)
	sys.RemoveProfileItem(5, profiles[5][0].ID)

	// Lazy: invisible before the boundary.
	mid, err := sys.Profile(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range mid {
		if it.ID == 12345 {
			t.Fatal("update visible before iteration")
		}
	}
	rep, err := sys.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesApplied != 2 {
		t.Errorf("UpdatesApplied = %d, want 2", rep.UpdatesApplied)
	}
	after, err := sys.Profile(5)
	if err != nil {
		t.Fatal(err)
	}
	var sawNew, sawRemoved bool
	for _, it := range after {
		if it.ID == 12345 {
			sawNew = true
		}
		if it.ID == profiles[5][0].ID {
			sawRemoved = true
		}
	}
	if !sawNew || sawRemoved {
		t.Errorf("profile update not applied correctly (new=%v removedStill=%v)", sawNew, sawRemoved)
	}
}

// TestSystemPipelined exercises the pipelined phase-4 mode through the
// public API: prefetch on disk with multi-worker scoring must converge
// to the same graph as the paper's serial two-slot execution, report
// prefetched loads, and keep the ops metric identical.
func TestSystemPipelined(t *testing.T) {
	profiles := testProfiles(t, 60)
	base := Config{K: 4, Partitions: 4, Seed: 11}

	serial, err := New(profiles, base)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	serialReports, err := serial.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.OnDisk = true
	cfg.Workers = 3
	cfg.PrefetchDepth = 2
	cfg.AsyncWriteback = true
	cfg.ShardPrefetch = 2
	pipe, err := New(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	pipeReports, err := pipe.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}

	if len(serialReports) != len(pipeReports) {
		t.Fatalf("serial converged in %d iterations, pipelined in %d", len(serialReports), len(pipeReports))
	}
	var prefetched, asyncUnloads int64
	for i := range serialReports {
		s, p := serialReports[i], pipeReports[i]
		if s.LoadUnloadOps != p.LoadUnloadOps {
			t.Fatalf("iter %d: ops %d vs %d", i, p.LoadUnloadOps, s.LoadUnloadOps)
		}
		if s.PrefetchedLoads != 0 || s.AsyncUnloads != 0 {
			t.Fatalf("iter %d: serial run reported async work (%d prefetched, %d async unloads)",
				i, s.PrefetchedLoads, s.AsyncUnloads)
		}
		prefetched += p.PrefetchedLoads
		asyncUnloads += p.AsyncUnloads
	}
	if prefetched == 0 {
		t.Error("pipelined run never prefetched a load")
	}
	if asyncUnloads == 0 {
		t.Error("pipelined run never wrote back asynchronously")
	}
	for u := uint32(0); u < 60; u++ {
		sn, pn := serial.Neighbors(u), pipe.Neighbors(u)
		if len(sn) != len(pn) {
			t.Fatalf("user %d: %d vs %d neighbors", u, len(pn), len(sn))
		}
		for i := range sn {
			if sn[i] != pn[i] {
				t.Fatalf("user %d: neighbors diverge (%v vs %v)", u, pn, sn)
			}
		}
	}
}

// TestSystemShardedWorkers: Config.ExecWorkers shards phase 4 across
// executor goroutines without changing a single neighbor, the reported
// per-worker op counts sum exactly to LoadUnloadOps, and the totals
// are deterministic (a second identical run reports the same ops).
func TestSystemShardedWorkers(t *testing.T) {
	profiles := testProfiles(t, 80)
	base := Config{K: 4, Partitions: 6, Seed: 5}

	serial, err := New(profiles, base)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	serialReports, err := serial.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.OnDisk = true
	cfg.ExecWorkers = 4
	cfg.Workers = 2
	cfg.PrefetchDepth = 1
	cfg.AsyncWriteback = true
	cfg.ShardPrefetch = 1
	sharded, err := New(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	shardReports, err := sharded.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}

	if len(serialReports) != len(shardReports) {
		t.Fatalf("serial converged in %d iterations, sharded in %d", len(serialReports), len(shardReports))
	}
	for i := range shardReports {
		r := shardReports[i]
		if r.ExecWorkers != 4 {
			t.Errorf("iter %d: ran %d tape workers, want 4", i, r.ExecWorkers)
		}
		var sum int64
		for _, ops := range r.WorkerOps {
			sum += ops
		}
		if sum != r.LoadUnloadOps {
			t.Errorf("iter %d: per-worker ops sum %d, total %d", i, sum, r.LoadUnloadOps)
		}
		if r.LoadUnloadOps < serialReports[i].LoadUnloadOps {
			t.Errorf("iter %d: sharded ops %d below single-cursor %d", i, r.LoadUnloadOps, serialReports[i].LoadUnloadOps)
		}
	}
	for u := uint32(0); u < 80; u++ {
		sn, pn := serial.Neighbors(u), sharded.Neighbors(u)
		if len(sn) != len(pn) {
			t.Fatalf("user %d: %d vs %d neighbors", u, len(pn), len(sn))
		}
		for i := range sn {
			if sn[i] != pn[i] {
				t.Fatalf("user %d: neighbors diverge (%v vs %v)", u, pn, sn)
			}
		}
	}

	again, err := New(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	againReports, err := again.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shardReports {
		if againReports[i].LoadUnloadOps != shardReports[i].LoadUnloadOps {
			t.Errorf("iter %d: ops %d vs %d across identical sharded runs",
				i, againReports[i].LoadUnloadOps, shardReports[i].LoadUnloadOps)
		}
	}
}

// TestSystemParallelBuild pins the public-API contract of the build
// pool: a BuildWorkers>1 system reproduces the serial system's
// neighbor lists and per-iteration tuple/op accounting exactly, and
// reports the pool width it ran with.
func TestSystemParallelBuild(t *testing.T) {
	profiles := testProfiles(t, 80)
	base := Config{K: 4, Partitions: 6, Exploration: 2, Seed: 5}

	serial, err := New(profiles, base)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	serialReports, err := serial.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.OnDisk = true
	cfg.BuildWorkers = 4
	parallel, err := New(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.Close()
	parReports, err := parallel.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}

	if len(serialReports) != len(parReports) {
		t.Fatalf("serial converged in %d iterations, parallel build in %d", len(serialReports), len(parReports))
	}
	for i := range parReports {
		s, p := serialReports[i], parReports[i]
		if p.BuildWorkers != 4 {
			t.Errorf("iter %d: reported %d build workers, want 4", i, p.BuildWorkers)
		}
		if s.BuildWorkers != 1 {
			t.Errorf("iter %d: serial system reported %d build workers", i, s.BuildWorkers)
		}
		if s.TuplesScored != p.TuplesScored || s.LoadUnloadOps != p.LoadUnloadOps || s.EdgeChanges != p.EdgeChanges {
			t.Errorf("iter %d: parallel build scored=%d ops=%d changes=%d, serial scored=%d ops=%d changes=%d",
				i, p.TuplesScored, p.LoadUnloadOps, p.EdgeChanges, s.TuplesScored, s.LoadUnloadOps, s.EdgeChanges)
		}
	}
	for u := uint32(0); u < 80; u++ {
		sn, pn := serial.Neighbors(u), parallel.Neighbors(u)
		if len(sn) != len(pn) {
			t.Fatalf("user %d: %d vs %d neighbors", u, len(pn), len(sn))
		}
		for i := range sn {
			if sn[i] != pn[i] {
				t.Fatalf("user %d: neighbors diverge (%v vs %v)", u, pn, sn)
			}
		}
	}
}

func TestExactNeighbors(t *testing.T) {
	profiles := testProfiles(t, 25)
	truth, err := ExactNeighbors(profiles, Config{K: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 25 {
		t.Fatalf("got %d users", len(truth))
	}
	for u, ids := range truth {
		if len(ids) != 4 {
			t.Errorf("user %d has %d exact neighbors, want 4", u, len(ids))
		}
	}
	if _, err := ExactNeighbors(profiles, Config{K: 4, Similarity: "nope"}); err == nil {
		t.Error("bad similarity should fail")
	}
}

// TestSystemNetworkStore drives the public API over the loopback
// sharded state store: the neighbor lists must be identical to the
// in-process system's, iteration for iteration.
func TestSystemNetworkStore(t *testing.T) {
	profiles := testProfiles(t, 80)
	base := Config{K: 4, Partitions: 6, Seed: 5}

	inproc, err := New(profiles, base)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	refReports, err := inproc.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.NetStoreShards = 2
	cfg.ExecWorkers = 2
	netSys, err := New(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer netSys.Close()
	netReports, err := netSys.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}

	if len(refReports) != len(netReports) {
		t.Fatalf("in-process converged in %d iterations, netstore in %d", len(refReports), len(netReports))
	}
	for i := range netReports {
		if refReports[i].EdgeChanges != netReports[i].EdgeChanges ||
			refReports[i].TuplesScored != netReports[i].TuplesScored {
			t.Fatalf("iter %d diverged: %+v vs %+v", i, refReports[i], netReports[i])
		}
	}
	refLists, netLists := inproc.NeighborLists(), netSys.NeighborLists()
	for u := range refLists {
		if len(refLists[u]) != len(netLists[u]) {
			t.Fatalf("user %d: %v vs %v", u, refLists[u], netLists[u])
		}
		for j := range refLists[u] {
			if refLists[u][j] != netLists[u][j] {
				t.Fatalf("user %d neighbors diverged: %v vs %v", u, refLists[u], netLists[u])
			}
		}
	}

	if _, err := New(profiles, Config{K: 4, NetStoreShards: 2, NetStoreAddrs: []string{"x:1"}}); err == nil {
		t.Error("NetStoreShards together with NetStoreAddrs accepted")
	}
}

func TestSystemDeltas(t *testing.T) {
	profiles := testProfiles(t, 60)
	sys, err := New(profiles, Config{K: 4, Partitions: 4, StalenessThreshold: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if got := sys.MaxStaleness(); got != 0 {
		t.Fatalf("staleness %g right after a full iteration", got)
	}

	// A whole-user add commits through the delta path and is served.
	if err := sys.AddUser(60, []Item{{ID: 5, Weight: 2}, {ID: 9, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	sys.DeleteUser(3)
	rep, err := sys.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adds != 1 || rep.Deletes != 1 || rep.SimEvals == 0 {
		t.Fatalf("delta report = %+v", rep)
	}
	if sys.MaxStaleness() <= 0 {
		t.Fatal("drift not tracked after a delta commit")
	}
	ids, _, err := sys.QueryNeighbors(60)
	if err != nil || len(ids) == 0 {
		t.Fatalf("added user not served: %v (%v)", ids, err)
	}
	if _, _, err := sys.QueryNeighbors(3); err == nil {
		t.Fatal("deleted user still served")
	}

	// An invalid profile is rejected at the API boundary, not queued.
	if err := sys.AddUser(61, []Item{{ID: 1, Weight: 1}, {ID: 1, Weight: 2}}); err == nil {
		t.Fatal("duplicate items in AddUser accepted")
	}

	if _, err := New(profiles, Config{K: 4, StalenessThreshold: -1}); err == nil {
		t.Error("negative staleness threshold accepted")
	}
}
