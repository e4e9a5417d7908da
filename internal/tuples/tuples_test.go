package tuples

import (
	"cmp"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/graph"
	"knnpc/internal/partition"
)

// collectBridge runs GenerateBridge over all partitions of g and
// returns the raw tuple stream.
func collectBridge(t *testing.T, g *graph.Digraph, m int) []Tuple {
	t.Helper()
	a, err := (partition.Hash{}).Partition(g, m)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	var out []Tuple
	for _, p := range partition.Build(g, a) {
		err := GenerateBridge(p, func(s, d uint32) error {
			out = append(out, Tuple{S: s, D: d})
			return nil
		})
		if err != nil {
			t.Fatalf("GenerateBridge: %v", err)
		}
	}
	return out
}

// naiveTwoHop enumerates {(s,d) : s→v→d ∈ g, s≠d} with duplicates for
// every distinct bridge.
func naiveTwoHop(g *graph.Digraph) []Tuple {
	var out []Tuple
	for v := uint32(0); int(v) < g.NumNodes(); v++ {
		var sources []uint32
		for u := uint32(0); int(u) < g.NumNodes(); u++ {
			if g.HasEdge(u, v) {
				sources = append(sources, u)
			}
		}
		for _, s := range sources {
			for _, d := range g.OutNeighbors(v) {
				if s != d {
					out = append(out, Tuple{S: s, D: d})
				}
			}
		}
	}
	return out
}

// bySourceThenDest is the (S, D) order shards are served in.
func bySourceThenDest(a, b Tuple) int {
	return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.D, b.D))
}

func sortTuples(ts []Tuple) { slices.SortFunc(ts, bySourceThenDest) }

func TestGenerateBridgeHandComputed(t *testing.T) {
	// 0→1→2, 0→1→3, 4→1→2 ... bridge 1 in one partition.
	g := graph.NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(4, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	got := collectBridge(t, g, 1)
	want := []Tuple{{0, 2}, {0, 3}, {4, 2}, {4, 3}}
	sortTuples(got)
	sortTuples(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bridge tuples = %v, want %v", got, want)
	}
}

func TestGenerateBridgeSkipsSelf(t *testing.T) {
	// 0→1→0 would produce (0,0): must be skipped.
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	got := collectBridge(t, g, 1)
	if len(got) != 0 {
		t.Errorf("self tuples must be skipped, got %v", got)
	}
}

func TestGenerateBridgeEqualsNaiveTwoHopProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		g, err := dataset.UniformRandom(n, min(3*n, n*(n-1)), seed)
		if err != nil {
			return false
		}
		m := 1 + r.Intn(5)
		if m > n {
			m = n
		}
		var got []Tuple
		a, err := (partition.Hash{}).Partition(g, m)
		if err != nil {
			return false
		}
		for _, p := range partition.Build(g, a) {
			if err := GenerateBridge(p, func(s, d uint32) error {
				got = append(got, Tuple{S: s, D: d})
				return nil
			}); err != nil {
				return false
			}
		}
		want := naiveTwoHop(g)
		sortTuples(got)
		sortTuples(want)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// paperDedupGraph builds the two duplicate-producing shapes the paper
// names: a 3-cycle (a,b,c with edges to each other) and a diamond
// (a→b→d, a→c→d).
func paperDedupGraph() *graph.Digraph {
	g := graph.NewDigraph(7)
	// cycle on 0,1,2 — all six arcs
	for _, e := range [][2]uint32{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}} {
		g.AddEdge(e[0], e[1])
	}
	// diamond 3→4→6, 3→5→6
	for _, e := range [][2]uint32{{3, 4}, {3, 5}, {4, 6}, {5, 6}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func newTables(t *testing.T, assign *partition.Assignment) map[string]Table {
	t.Helper()
	scratch, err := disk.NewScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var stats disk.IOStats
	return map[string]Table{
		"mem":  NewMemTable(assign),
		"disk": NewDiskTable(assign, scratch, &stats, 4), // tiny batch to force spills
	}
}

func TestTableDeduplicatesPaperCases(t *testing.T) {
	g := paperDedupGraph()
	a, err := (partition.Range{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, table := range newTables(t, a) {
		t.Run(name, func(t *testing.T) {
			defer table.Close()
			// The diamond yields (3,6) twice (bridges 4 and 5); the
			// cycle yields duplicates like (0,1) from direct + 2-hop.
			for _, p := range partition.Build(g, a) {
				if err := GenerateBridge(p, table.Add); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range g.Edges() {
				if err := table.Add(e.Src, e.Dst); err != nil {
					t.Fatal(err)
				}
			}
			seen := make(map[Tuple]bool)
			for i := uint32(0); i < 2; i++ {
				for j := uint32(0); j < 2; j++ {
					shard, err := table.Shard(i, j)
					if err != nil {
						t.Fatalf("Shard(%d,%d): %v", i, j, err)
					}
					for _, tu := range shard {
						if seen[tu] {
							t.Fatalf("duplicate tuple %v across shards", tu)
						}
						seen[tu] = true
					}
				}
			}
			if !seen[Tuple{3, 6}] {
				t.Error("diamond tuple (3,6) missing")
			}
			if !seen[Tuple{0, 1}] {
				t.Error("direct edge (0,1) missing")
			}
			if seen[Tuple{0, 0}] {
				t.Error("self tuple leaked into H")
			}
		})
	}
}

func TestMemAndDiskTablesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(30)
		m := 2 + r.Intn(3)
		if m > n {
			m = n
		}
		g, err := dataset.UniformRandom(n, min(4*n, n*(n-1)), seed)
		if err != nil {
			return false
		}
		a, err := (partition.Hash{}).Partition(g, m)
		if err != nil {
			return false
		}
		scratch, err := disk.NewScratch("")
		if err != nil {
			return false
		}
		defer scratch.Close()
		var stats disk.IOStats
		mem := NewMemTable(a)
		dsk := NewDiskTable(a, scratch, &stats, 3)
		defer mem.Close()
		defer dsk.Close()

		for _, p := range partition.Build(g, a) {
			if err := GenerateBridge(p, func(s, d uint32) error {
				if err := mem.Add(s, d); err != nil {
					return err
				}
				return dsk.Add(s, d)
			}); err != nil {
				return false
			}
		}
		for i := uint32(0); int(i) < m; i++ {
			for j := uint32(0); int(j) < m; j++ {
				a1, err := mem.Shard(i, j)
				if err != nil {
					return false
				}
				a2, err := dsk.Shard(i, j)
				if err != nil {
					return false
				}
				if !reflect.DeepEqual(a1, a2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestShardsAreSortedAndOwnedByRightPartitions(t *testing.T) {
	g, err := dataset.UniformRandom(40, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Hash{}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	table := NewMemTable(a)
	defer table.Close()
	for _, e := range g.Edges() {
		table.Add(e.Src, e.Dst)
	}
	for id := range table.ShardCounts() {
		shard, err := table.Shard(id.I, id.J)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(shard, bySourceThenDest) {
			t.Errorf("shard (%d,%d) not sorted", id.I, id.J)
		}
		for _, tu := range shard {
			if a.Of(tu.S) != id.I || a.Of(tu.D) != id.J {
				t.Errorf("tuple %v landed in wrong shard (%d,%d)", tu, id.I, id.J)
			}
		}
	}
}

func TestMemTableCounts(t *testing.T) {
	a, err := partition.NewAssignment([]uint32{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	table := NewMemTable(a)
	table.Add(0, 1)
	table.Add(0, 1) // duplicate
	table.Add(0, 2)
	if table.Added() != 3 {
		t.Errorf("Added = %d, want 3", table.Added())
	}
	if table.Unique() != 2 {
		t.Errorf("Unique = %d, want 2", table.Unique())
	}
	counts := table.ShardCounts()
	if counts[ShardID{0, 0}] != 1 || counts[ShardID{0, 1}] != 1 {
		t.Errorf("ShardCounts = %v", counts)
	}
}

func TestDiskTableAddAfterClose(t *testing.T) {
	a, err := partition.NewAssignment([]uint32{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := disk.NewScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var stats disk.IOStats
	table := NewDiskTable(a, scratch, &stats, 0)
	if err := table.Close(); err != nil {
		t.Fatal(err)
	}
	if err := table.Add(0, 1); err == nil {
		t.Error("Add after Close should fail")
	}
	if err := table.AddBatch([]Tuple{{0, 1}}); err == nil {
		t.Error("AddBatch after Close should fail")
	}
	if err := table.Close(); err != nil {
		t.Errorf("double Close should be a no-op, got %v", err)
	}
}

// TestDiskTableAddRacesClose is the satellite race test for the
// concurrent-build contract: producers hammer Add/AddBatch from
// several goroutines while Close lands in the middle. Run under -race
// in CI. Before the closed check moved under the table's locking
// scheme, Add read t.closed unsynchronized while Close wrote it — a
// data race — and a producer that slipped past the check could
// resurrect a spill writer for a file Close had already removed. After
// the fix every add either lands entirely before Close detaches its
// shard (the file is then cleaned up by Close) or reports the closed
// error; no spill file may survive.
func TestDiskTableAddRacesClose(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		dir := t.TempDir()
		a, err := partition.NewAssignment([]uint32{0, 1, 0, 1, 2, 2}, 3)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := disk.NewScratch(dir)
		if err != nil {
			t.Fatal(err)
		}
		var stats disk.IOStats
		table := NewDiskTable(a, scratch, &stats, 2) // tiny batch: every producer flushes

		start := make(chan struct{})
		done := make(chan struct{}, 3)
		producer := func(base uint32, batched bool) {
			defer func() { done <- struct{}{} }()
			<-start
			r := rand.New(rand.NewSource(seed + int64(base)))
			for i := 0; i < 400; i++ {
				s, d := uint32(r.Intn(6)), uint32(r.Intn(6))
				var err error
				if batched {
					err = table.AddBatch([]Tuple{{s, d}, {d, s}})
				} else {
					err = table.Add(s, d)
				}
				if err != nil {
					if !strings.Contains(err.Error(), "closed") {
						t.Errorf("seed %d: unexpected add error: %v", seed, err)
					}
					return
				}
			}
		}
		go producer(0, false)
		go producer(1, true)
		go producer(2, true)
		closed := make(chan error, 1)
		go func() {
			<-start
			closed <- table.Close()
		}()
		close(start)

		if err := <-closed; err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
		for r := 0; r < 3; r++ {
			<-done
		}
		// Whatever interleaving happened, Close must have removed every
		// spill file a racing producer managed to create.
		files, err := filepath.Glob(filepath.Join(dir, "shard-*.tuples"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) > 0 {
			t.Fatalf("seed %d: spill files survived Close: %v", seed, files)
		}
	}
}

// TestParallelAddBatchMatchesSerialTable is the table-level statement
// of the build-side invariant: the same tuple multiset fed through
// concurrent AddBatch producers (in shuffled, overlapping slices) must
// leave H byte-for-byte equal to feeding it through serial per-tuple
// Add — same Added tally, same raw ShardCounts, same de-duplicated
// sorted shard contents — for both table implementations.
func TestParallelAddBatchMatchesSerialTable(t *testing.T) {
	const users, m, seed = 60, 4, 11
	g, err := dataset.UniformRandom(users, 5*users, seed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Hash{}).Partition(g, m)
	if err != nil {
		t.Fatal(err)
	}
	// The raw stream, duplicates included: two-hop tuples + direct edges.
	var stream []Tuple
	for _, p := range partition.Build(g, a) {
		if err := GenerateBridge(p, func(s, d uint32) error {
			stream = append(stream, Tuple{S: s, D: d})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		stream = append(stream, Tuple{S: e.Src, D: e.Dst})
	}

	type result struct {
		added  int64
		counts map[ShardID]int64
		shards map[ShardID][]Tuple
	}
	drain := func(table Table) result {
		res := result{added: table.Added(), counts: table.ShardCounts(), shards: make(map[ShardID][]Tuple)}
		for i := uint32(0); i < m; i++ {
			for j := uint32(0); j < m; j++ {
				ts, err := table.Shard(i, j)
				if err != nil {
					t.Fatal(err)
				}
				if ts != nil {
					res.shards[ShardID{i, j}] = ts
				}
			}
		}
		return res
	}

	for _, name := range []string{"mem", "disk"} {
		t.Run(name, func(t *testing.T) {
			mk := func() Table {
				if name == "mem" {
					return NewMemTable(a)
				}
				scratch, err := disk.NewScratch(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var stats disk.IOStats
				return NewDiskTable(a, scratch, &stats, 4)
			}
			serial := mk()
			defer serial.Close()
			for _, tu := range stream {
				if err := serial.Add(tu.S, tu.D); err != nil {
					t.Fatal(err)
				}
			}
			want := drain(serial)

			parallel := mk()
			defer parallel.Close()
			// Shuffle a copy so producers interleave shards arbitrarily,
			// then split into uneven slices fed from 4 goroutines in
			// batches of varying size.
			shuffled := append([]Tuple(nil), stream...)
			r := rand.New(rand.NewSource(seed))
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				lo, hi := w*len(shuffled)/4, (w+1)*len(shuffled)/4
				wg.Add(1)
				go func(chunk []Tuple, step int) {
					defer wg.Done()
					for len(chunk) > 0 {
						n := min(step, len(chunk))
						if err := parallel.AddBatch(chunk[:n]); err != nil {
							t.Error(err)
							return
						}
						chunk = chunk[n:]
					}
				}(shuffled[lo:hi], 3+w*7)
			}
			wg.Wait()
			got := drain(parallel)

			if got.added != want.added {
				t.Errorf("Added = %d parallel, %d serial", got.added, want.added)
			}
			// Disk counts are raw-add tallies, mem counts distinct-set
			// sizes — both pure functions of the multiset.
			if !reflect.DeepEqual(got.counts, want.counts) {
				t.Errorf("ShardCounts diverge:\nparallel %v\nserial   %v", got.counts, want.counts)
			}
			if !reflect.DeepEqual(got.shards, want.shards) {
				t.Error("de-duplicated shard contents diverge between parallel and serial build")
			}
		})
	}
}

func TestEmptyShardIsEmpty(t *testing.T) {
	a, err := partition.NewAssignment([]uint32{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, table := range newTables(t, a) {
		t.Run(name, func(t *testing.T) {
			defer table.Close()
			shard, err := table.Shard(1, 1)
			if err != nil || shard != nil {
				t.Errorf("empty shard = %v, %v", shard, err)
			}
		})
	}
}

// shardAheadFixture builds a mem + disk table pair over a random
// two-hop workload, with a tiny spill batch so shard prefetch has real
// file bytes to read.
func shardAheadFixture(t *testing.T, seed int64, n, m int) (*MemTable, *DiskTable, *partition.Assignment) {
	t.Helper()
	g, err := dataset.UniformRandom(n, 4*n, seed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Hash{}).Partition(g, m)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := disk.NewScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var stats disk.IOStats
	mem := NewMemTable(a)
	dsk := NewDiskTable(a, scratch, &stats, 4)
	for _, p := range partition.Build(g, a) {
		if err := GenerateBridge(p, func(s, d uint32) error {
			if err := mem.Add(s, d); err != nil {
				return err
			}
			return dsk.Add(s, d)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return mem, dsk, a
}

// TestShardAheadMatchesSynchronousShard: announcing a shard and then
// reading it returns exactly the bytes a synchronous Shard would have,
// on every shard of the table, and the async path reports the spill
// bytes it read.
func TestShardAheadMatchesSynchronousShard(t *testing.T) {
	const m = 3
	mem, dsk, _ := shardAheadFixture(t, 7, 40, m)
	defer mem.Close()
	defer dsk.Close()

	// Announce everything up front — maximum concurrency.
	for i := uint32(0); i < m; i++ {
		for j := uint32(0); j < m; j++ {
			dsk.ShardAhead(i, j)
			dsk.ShardAhead(i, j) // double announce must be a no-op
		}
	}
	for i := uint32(0); i < m; i++ {
		for j := uint32(0); j < m; j++ {
			want, err := mem.Shard(i, j)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dsk.Shard(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("shard (%d,%d): async %v, sync %v", i, j, got, want)
			}
		}
	}
	if dsk.PrefetchedShardBytes() == 0 {
		t.Error("no spill bytes attributed to the async path")
	}
}

// TestShardAheadUnknownShardIsNoop: announcing shards that never
// received a tuple (or out-of-range partitions) neither errors nor
// leaks goroutines, and their Shard still reports empty.
func TestShardAheadUnknownShardIsNoop(t *testing.T) {
	mem, dsk, _ := shardAheadFixture(t, 9, 12, 2)
	defer mem.Close()
	defer dsk.Close()
	dsk.ShardAhead(17, 23)
	if ts, err := dsk.Shard(17, 23); err != nil || ts != nil {
		t.Fatalf("unknown shard returned %v, %v", ts, err)
	}
	if dsk.PrefetchedShardBytes() != 0 {
		t.Errorf("no-op announcements read %d bytes", dsk.PrefetchedShardBytes())
	}
}

// TestCloseRacesShardAhead is the satellite race test: readers issue
// ShardAhead announcements and consume shards from several goroutines
// while Close lands in the middle. Run under -race in CI: before the
// fix, Close tore down the writers map outside the mutex while a
// concurrent Shard was taking from it, so a late read could touch a
// writer Close had already closed (or a removed spill file) — or race
// on the map itself. After Close every Shard must either have
// completed against state it took earlier or report a "after Close"
// error; it must never silently return an empty shard.
func TestCloseRacesShardAhead(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		mem, dsk, _ := shardAheadFixture(t, 100+seed, 60, 4)
		mem.Close()

		start := make(chan struct{})
		done := make(chan error, 2)
		// Each reader owns a disjoint half of the shard space (Shard is
		// consume-once), announcing ahead and consuming like a phase-4
		// worker cursor.
		reader := func(iBase uint32) {
			<-start
			for k := uint32(0); k < 8; k++ {
				i, j := iBase+k/4, k%4
				dsk.ShardAhead(i, j)
				if _, err := dsk.Shard(i, j); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}
		go reader(0)
		go reader(2)
		closed := make(chan error, 1)
		go func() {
			<-start
			closed <- dsk.Close()
		}()
		close(start)

		if err := <-closed; err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
		for r := 0; r < 2; r++ {
			if err := <-done; err != nil && !strings.Contains(err.Error(), "after Close") {
				t.Fatalf("seed %d: reader saw unexpected error: %v", seed, err)
			}
		}
		if _, err := dsk.Shard(0, 1); err == nil {
			t.Fatalf("seed %d: Shard on a closed table returned no error", seed)
		}
	}
}

// TestCloseDrainsInFlightShardReads: closing the table with announced
// but never-consumed shards (an aborted phase 4) waits out the reads
// and removes every spill file.
func TestCloseDrainsInFlightShardReads(t *testing.T) {
	mem, dsk, _ := shardAheadFixture(t, 11, 40, 3)
	defer mem.Close()
	for i := uint32(0); i < 3; i++ {
		for j := uint32(0); j < 3; j++ {
			dsk.ShardAhead(i, j)
		}
	}
	if err := dsk.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dsk.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

// TestTombstoneFilterDropsDeadEndpoints: with a predicate installed,
// both tables drop tuples touching tombstoned users on both add paths;
// with no predicate the tables behave exactly as before.
func TestTombstoneFilterDropsDeadEndpoints(t *testing.T) {
	a, err := partition.NewAssignment([]uint32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := disk.NewScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var stats disk.IOStats
	dead := func(u uint32) bool { return u == 2 }
	for name, table := range map[string]Table{
		"mem":  NewMemTable(a),
		"disk": NewDiskTable(a, scratch, &stats, 0),
	} {
		table.SetTombstones(dead)
		if err := table.Add(0, 2); err != nil { // dead dst: dropped
			t.Fatalf("%s: %v", name, err)
		}
		if err := table.Add(2, 1); err != nil { // dead src: dropped
			t.Fatalf("%s: %v", name, err)
		}
		if err := table.AddBatch([]Tuple{{0, 1}, {2, 3}, {3, 2}, {1, 3}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := table.Added(); got != 2 {
			t.Errorf("%s: Added = %d, want 2 surviving tuples", name, got)
		}
		var all []Tuple
		for i := uint32(0); i < 2; i++ {
			for j := uint32(0); j < 2; j++ {
				ts, err := table.Shard(i, j)
				if err != nil {
					t.Fatalf("%s: Shard(%d,%d): %v", name, i, j, err)
				}
				all = append(all, ts...)
			}
		}
		sortTuples(all)
		want := []Tuple{{0, 1}, {1, 3}}
		if !reflect.DeepEqual(all, want) {
			t.Errorf("%s: surviving tuples %v, want %v", name, all, want)
		}
		if err := table.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// filterTuples with a nil predicate must be copy-free pass-through.
	in := []Tuple{{0, 1}}
	if out := filterTuples(in, nil); &out[0] != &in[0] {
		t.Error("filterTuples(nil) copied its input")
	}
}
