package tuples

import (
	"cmp"
	"fmt"
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

// bySourceThenDest is the (S, D) order each run of a shard is served in.
func bySourceThenDest(a, b Tuple) int {
	return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.D, b.D))
}

func sortTuples(ts []Tuple) { slices.SortFunc(ts, bySourceThenDest) }

// sortServed puts ts in the order shard id is served in: the tuples
// whose source lies in partition id.I, then those whose source lies in
// id.J, each run by (S, D).
func sortServed(a *partition.Assignment, id ShardID, ts []Tuple) {
	run := func(tu Tuple) int {
		if a.Of(tu.S) == id.I {
			return 0
		}
		return 1
	}
	slices.SortFunc(ts, func(x, y Tuple) int {
		return cmp.Or(cmp.Compare(run(x), run(y)), bySourceThenDest(x, y))
	})
}

// checkShard asserts the undirected shard contract on what Shard
// served for id: I ≤ J, every tuple's endpoint partitions are {I, J},
// and the S∈I run precedes the S∈J run, each strictly (S, D)-increasing
// (so de-duplicated).
func checkShard(a *partition.Assignment, id ShardID, ts []Tuple) error {
	if id.I > id.J {
		return fmt.Errorf("shard id %v is not normalised", id)
	}
	inJ := false
	for k, tu := range ts {
		ps, pd := a.Of(tu.S), a.Of(tu.D)
		if min(ps, pd) != id.I || max(ps, pd) != id.J {
			return fmt.Errorf("tuple %v (partitions %d,%d) landed in shard %v", tu, ps, pd, id)
		}
		if ps != id.I {
			inJ = true
		} else if inJ {
			return fmt.Errorf("shard %v: source in %d after the run of sources in %d", id, id.I, id.J)
		}
		if k > 0 && a.Of(ts[k-1].S) == ps && bySourceThenDest(ts[k-1], tu) >= 0 {
			return fmt.Errorf("shard %v: %v after %v breaks the (S, D) run order", id, tu, ts[k-1])
		}
	}
	return nil
}

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

// media are the two places H's raw tuples can wait: "mem" is a table
// with no scratch (it never spills), "disk" one that spills to files.
var media = []string{"mem", "disk"}

// newTable returns an empty H on the named medium. batch only matters
// on "disk"; tests pass a tiny one so every shard really spills.
func newTable(t *testing.T, medium string, a *partition.Assignment, batch int) *DiskTable {
	t.Helper()
	var scratch *disk.Scratch
	if medium == "disk" {
		var err error
		if scratch, err = disk.NewScratch(t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	return NewDiskTable(a, scratch, new(disk.IOStats), batch)
}

// addTo adapts a table to GenerateBridge's per-tuple emit.
func addTo(table *DiskTable) func(s, d uint32) error {
	return func(s, d uint32) error { return table.AddBatch([]Tuple{{S: s, D: d}}) }
}

// addParallel feeds stream into table from four concurrent AddBatch
// producers, in an order shuffled by r and in batches of a different
// size per producer, so shards interleave arbitrarily.
func addParallel(t *testing.T, table *DiskTable, stream []Tuple, r *rand.Rand) {
	t.Helper()
	shuffled := slices.Clone(stream)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		lo, hi := w*len(shuffled)/4, (w+1)*len(shuffled)/4
		wg.Add(1)
		go func(chunk []Tuple, step int) {
			defer wg.Done()
			for len(chunk) > 0 {
				n := min(step, len(chunk))
				if err := table.AddBatch(chunk[:n]); err != nil {
					t.Error(err)
					return
				}
				chunk = chunk[n:]
			}
		}(shuffled[lo:hi], 3+w*7)
	}
	wg.Wait()
}

// contents is everything H serves once the adds are done.
type contents struct {
	added  int64
	counts map[ShardID]int64
	shards map[ShardID][]Tuple
}

// drain reads every shard of an m-partition table once, asking for
// every ordered pair (the mirror of a consumed shard serves nil) and
// announcing them all through ShardAhead first when ahead is set.
func drain(t *testing.T, table *DiskTable, m uint32, ahead bool) contents {
	t.Helper()
	c := contents{added: table.Added(), counts: table.ShardCounts(), shards: make(map[ShardID][]Tuple)}
	if ahead {
		for i := uint32(0); i < m; i++ {
			for j := uint32(0); j < m; j++ {
				table.ShardAhead(i, j)
			}
		}
	}
	for i := uint32(0); i < m; i++ {
		for j := uint32(0); j < m; j++ {
			ts, err := table.Shard(i, j)
			if err != nil {
				t.Fatalf("Shard(%d,%d): %v", i, j, err)
			}
			if ts != nil {
				c.shards[ShardID{i, j}] = ts
			}
		}
	}
	return c
}

// oracle is H by brute force: a set of packed tuples per unordered
// partition pair, plus the raw tallies, filled one tuple at a time.
func oracle(a *partition.Assignment, stream []Tuple, dead func(uint32) bool) contents {
	sets := make(map[ShardID]map[uint64]struct{})
	c := contents{counts: make(map[ShardID]int64), shards: make(map[ShardID][]Tuple)}
	for _, tu := range stream {
		if dead != nil && (dead(tu.S) || dead(tu.D)) {
			continue
		}
		id := pairID(a.Of(tu.S), a.Of(tu.D))
		if sets[id] == nil {
			sets[id] = make(map[uint64]struct{})
		}
		sets[id][pack(tu.S, tu.D)] = struct{}{}
		c.counts[id]++
		c.added++
	}
	for id, set := range sets {
		for k := range set {
			c.shards[id] = append(c.shards[id], unpack(k))
		}
		sortServed(a, id, c.shards[id])
	}
	return c
}

func TestTableDeduplicatesPaperCases(t *testing.T) {
	g := paperDedupGraph()
	a, err := (partition.Range{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, medium := range media {
		t.Run(medium, func(t *testing.T) {
			table := newTable(t, medium, a, 4)
			defer table.Close()
			// The diamond yields (3,6) twice (bridges 4 and 5); the
			// cycle yields duplicates like (0,1) from direct + 2-hop.
			add := addTo(table)
			for _, p := range partition.Build(g, a) {
				if err := GenerateBridge(p, add); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range g.Edges() {
				if err := add(e.Src, e.Dst); err != nil {
					t.Fatal(err)
				}
			}
			seen := make(map[Tuple]bool)
			for _, shard := range drain(t, table, 2, false).shards {
				for _, tu := range shard {
					if seen[tu] {
						t.Fatalf("duplicate tuple %v across shards", tu)
					}
					seen[tu] = true
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

// TestMemAndDiskTablesAgreeProperty is the one-table proof: over random
// tuple multisets fed through concurrent AddBatch producers, the table
// that never spills, the table that spills every single tuple, and a
// brute-force oracle agree on Added, on the raw undirected ShardCounts
// and on every shard's de-duplicated contents in served order — with
// and without tombstones, with shards consumed through ShardAhead and
// through plain Shard.
func TestMemAndDiskTablesAgreeProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, m := 4+r.Intn(40), 1+r.Intn(5)
		of := make([]uint32, n)
		for u := range of {
			of[u] = uint32(r.Intn(m))
		}
		a, err := partition.NewAssignment(of, m)
		if err != nil {
			t.Fatal(err)
		}
		// Few users, many draws: most tuples arrive more than once.
		stream := make([]Tuple, r.Intn(800))
		for i := range stream {
			stream[i] = Tuple{S: uint32(r.Intn(n)), D: uint32(r.Intn(n))}
		}
		tombstoned := map[uint32]bool{uint32(r.Intn(n)): true, uint32(r.Intn(n)): true}
		for _, dead := range []func(uint32) bool{nil, func(u uint32) bool { return tombstoned[u] }} {
			want := oracle(a, stream, dead)
			for _, ahead := range []bool{false, true} {
				for _, medium := range media {
					table := newTable(t, medium, a, 1)
					table.SetTombstones(dead)
					addParallel(t, table, stream, r)
					got := drain(t, table, uint32(m), ahead)
					if err := table.Close(); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("seed %d %s tombstones=%v ahead=%v", seed, medium, dead != nil, ahead)
					if got.added != want.added {
						t.Errorf("%s: Added = %d, oracle %d", name, got.added, want.added)
					}
					if !reflect.DeepEqual(got.counts, want.counts) {
						t.Errorf("%s: ShardCounts = %v, oracle %v", name, got.counts, want.counts)
					}
					if !reflect.DeepEqual(got.shards, want.shards) {
						t.Errorf("%s: shard contents diverge from the oracle", name)
					}
				}
			}
		}
	}
}

// TestShardsAreSortedAndOwnedByRightPartitions pins the undirected
// shard contract on both media: ShardCounts keys all have I ≤ J and sum
// to Added; shard {i, j} serves exactly the de-duplicated tuples whose
// endpoint partitions are {i, j}, sources in i first, each run sorted;
// and once Shard(a, b) has consumed it, Shard(b, a) returns nil.
func TestShardsAreSortedAndOwnedByRightPartitions(t *testing.T) {
	g, err := dataset.UniformRandom(40, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Hash{}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	stream := collectBridge(t, g, 4)
	for _, e := range g.Edges() {
		stream = append(stream, Tuple{S: e.Src, D: e.Dst})
	}
	want := oracle(a, stream, nil)
	for _, medium := range media {
		table := newTable(t, medium, a, 3)
		if err := table.AddBatch(stream); err != nil {
			t.Fatal(err)
		}
		counts := table.ShardCounts()
		var sum int64
		for id, n := range counts {
			if id.I > id.J {
				t.Errorf("%s: ShardCounts key %v has I > J", medium, id)
			}
			sum += n
		}
		if sum != table.Added() {
			t.Errorf("%s: ShardCounts sum to %d, Added = %d", medium, sum, table.Added())
		}
		for id := range counts {
			// The reverse orientation names the same shard.
			shard, err := table.Shard(id.J, id.I)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkShard(a, id, shard); err != nil {
				t.Errorf("%s: %v", medium, err)
			}
			if !reflect.DeepEqual(shard, want.shards[id]) {
				t.Errorf("%s: shard %v diverges from the oracle", medium, id)
			}
			if again, err := table.Shard(id.I, id.J); err != nil || again != nil {
				t.Errorf("%s: shard %v served twice: %d tuples, %v", medium, id, len(again), err)
			}
		}
		if len(counts) != len(want.shards) {
			t.Errorf("%s: %d shards, oracle %d", medium, len(counts), len(want.shards))
		}
		if err := table.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardAheadEitherOrientationStartsOneRead: announcing (a, b) and
// then (b, a) starts exactly one background read of the one spill file,
// and consuming it as (b, a) returns the whole shard.
func TestShardAheadEitherOrientationStartsOneRead(t *testing.T) {
	a, err := partition.NewAssignment([]uint32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	table := newTable(t, "disk", a, 1)
	defer table.Close()
	if err := table.AddBatch([]Tuple{{0, 2}, {3, 1}, {2, 0}, {1, 3}, {0, 2}}); err != nil {
		t.Fatal(err)
	}
	table.ShardAhead(0, 1)
	table.ShardAhead(1, 0)
	table.mu.Lock()
	inflight := len(table.futures)
	table.mu.Unlock()
	if inflight != 1 {
		t.Fatalf("%d reads in flight after announcing both orientations, want 1", inflight)
	}
	got, err := table.Shard(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Tuple{{0, 2}, {1, 3}, {2, 0}, {3, 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("shard {0,1} = %v, want %v", got, want)
	}
	if n := table.SpillReads(); n != 1 {
		t.Errorf("%d spill files read, want 1", n)
	}
	if table.PrefetchedShardBytes() != 5*8 {
		t.Errorf("read ahead %d bytes, want the 5 spilled tuples", table.PrefetchedShardBytes())
	}
}

func TestDiskTableAddAfterClose(t *testing.T) {
	a, err := partition.NewAssignment([]uint32{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, medium := range media {
		table := newTable(t, medium, a, 0)
		if err := table.Close(); err != nil {
			t.Fatal(err)
		}
		if err := table.AddBatch([]Tuple{{0, 1}}); err == nil {
			t.Errorf("%s: AddBatch after Close should fail", medium)
		}
		if err := table.Close(); err != nil {
			t.Errorf("%s: double Close should be a no-op, got %v", medium, err)
		}
	}
}

// TestDiskTableAddRacesClose is the race test for the concurrent-build
// contract: producers hammer AddBatch from several goroutines while
// Close lands in the middle. Run under -race in CI. Before the closed
// check moved under the table's locking scheme, the add path read
// t.closed unsynchronized while Close wrote it — a data race — and a
// producer that slipped past the check could resurrect a spill writer
// for a file Close had already removed. After the fix every add either
// lands entirely before Close detaches its shard (the file is then
// cleaned up by Close) or reports the closed error; no spill file may
// survive.
func TestDiskTableAddRacesClose(t *testing.T) {
	a, err := partition.NewAssignment([]uint32{0, 1, 0, 1, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, medium := range media {
		for seed := int64(0); seed < 5; seed++ {
			dir := t.TempDir()
			var scratch *disk.Scratch
			if medium == "disk" {
				if scratch, err = disk.NewScratch(dir); err != nil {
					t.Fatal(err)
				}
			}
			table := NewDiskTable(a, scratch, new(disk.IOStats), 2) // tiny batch: every producer flushes

			start := make(chan struct{})
			done := make(chan struct{}, 3)
			producer := func(base uint32, pairs bool) {
				defer func() { done <- struct{}{} }()
				<-start
				r := rand.New(rand.NewSource(seed + int64(base)))
				for i := 0; i < 400; i++ {
					s, d := uint32(r.Intn(6)), uint32(r.Intn(6))
					batch := []Tuple{{s, d}}
					if pairs {
						batch = append(batch, Tuple{d, s})
					}
					if err := table.AddBatch(batch); err != nil {
						if !strings.Contains(err.Error(), "closed") {
							t.Errorf("%s seed %d: unexpected add error: %v", medium, seed, err)
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
				t.Fatalf("%s seed %d: Close: %v", medium, seed, err)
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
				t.Fatalf("%s seed %d: spill files survived Close: %v", medium, seed, files)
			}
		}
	}
}

// TestParallelAddBatchMatchesSerialTable is the table-level statement
// of the build-side invariant: the same tuple multiset fed through
// concurrent AddBatch producers (in shuffled, overlapping slices) must
// leave H byte-for-byte equal to feeding it one tuple at a time from one
// goroutine — same Added tally, same raw ShardCounts, same
// de-duplicated sorted shard contents — on both media.
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

	for _, medium := range media {
		t.Run(medium, func(t *testing.T) {
			serial := newTable(t, medium, a, 4)
			defer serial.Close()
			for _, tu := range stream {
				if err := serial.AddBatch([]Tuple{tu}); err != nil {
					t.Fatal(err)
				}
			}
			want := drain(t, serial, m, false)

			parallel := newTable(t, medium, a, 4)
			defer parallel.Close()
			addParallel(t, parallel, stream, rand.New(rand.NewSource(seed)))
			got := drain(t, parallel, m, false)

			if got.added != want.added {
				t.Errorf("Added = %d parallel, %d serial", got.added, want.added)
			}
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
	for _, medium := range media {
		t.Run(medium, func(t *testing.T) {
			table := newTable(t, medium, a, 4)
			defer table.Close()
			shard, err := table.Shard(1, 1)
			if err != nil || shard != nil {
				t.Errorf("empty shard = %v, %v", shard, err)
			}
		})
	}
}

// shardAheadFixture fills one table per medium with the same random
// two-hop workload; the disk one has a tiny spill batch so shard
// prefetch has real file bytes to read.
func shardAheadFixture(t *testing.T, seed int64, n, m int) map[string]*DiskTable {
	t.Helper()
	g, err := dataset.UniformRandom(n, 4*n, seed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Hash{}).Partition(g, m)
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[string]*DiskTable)
	for _, medium := range media {
		tables[medium] = newTable(t, medium, a, 4)
		for _, p := range partition.Build(g, a) {
			if err := GenerateBridge(p, addTo(tables[medium])); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tables
}

// TestShardAheadMatchesSynchronousShard: announcing a shard and then
// reading it returns exactly the tuples a synchronous Shard would have,
// on every shard of the table, and the async path reports the spill
// bytes it read.
func TestShardAheadMatchesSynchronousShard(t *testing.T) {
	const m = 3
	tables := shardAheadFixture(t, 7, 40, m)
	mem, dsk := tables["mem"], tables["disk"]
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
	for medium, table := range shardAheadFixture(t, 9, 12, 2) {
		table.ShardAhead(17, 23)
		if ts, err := table.Shard(17, 23); err != nil || ts != nil {
			t.Fatalf("%s: unknown shard returned %v, %v", medium, ts, err)
		}
		if table.PrefetchedShardBytes() != 0 {
			t.Errorf("%s: no-op announcements read %d bytes", medium, table.PrefetchedShardBytes())
		}
		table.Close()
	}
}

// TestCloseRacesShardAhead is the race test on the read side: readers
// issue ShardAhead announcements and consume shards from several
// goroutines while Close lands in the middle. Run under -race in CI:
// before the fix, Close tore down the writers map outside the mutex
// while a concurrent Shard was taking from it, so a late read could
// touch a writer Close had already closed (or a removed spill file) —
// or race on the map itself. After Close every Shard must either have
// completed against state it took earlier or report a "after Close"
// error; it must never silently return an empty shard.
func TestCloseRacesShardAhead(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for medium, table := range shardAheadFixture(t, 100+seed, 60, 4) {
			start := make(chan struct{})
			done := make(chan error, 2)
			// Each reader walks half of the ordered pairs, announcing one
			// orientation and consuming the other like a phase-4 worker
			// cursor; (i, j) and (j, i) are one shard, so the readers
			// race for the mirrored ones (the loser is served nil).
			reader := func(iBase uint32) {
				<-start
				for k := uint32(0); k < 8; k++ {
					i, j := iBase+k/4, k%4
					table.ShardAhead(j, i)
					if _, err := table.Shard(i, j); err != nil {
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
				closed <- table.Close()
			}()
			close(start)

			if err := <-closed; err != nil {
				t.Fatalf("%s seed %d: Close: %v", medium, seed, err)
			}
			for r := 0; r < 2; r++ {
				if err := <-done; err != nil && !strings.Contains(err.Error(), "after Close") {
					t.Fatalf("%s seed %d: reader saw unexpected error: %v", medium, seed, err)
				}
			}
			if _, err := table.Shard(0, 1); err == nil {
				t.Fatalf("%s seed %d: Shard on a closed table returned no error", medium, seed)
			}
		}
	}
}

// TestCloseDrainsInFlightShardReads: closing the table with announced
// but never-consumed shards (an aborted phase 4) waits out the reads
// and removes every spill file.
func TestCloseDrainsInFlightShardReads(t *testing.T) {
	for medium, table := range shardAheadFixture(t, 11, 40, 3) {
		for i := uint32(0); i < 3; i++ {
			for j := uint32(0); j < 3; j++ {
				table.ShardAhead(i, j)
			}
		}
		if err := table.Close(); err != nil {
			t.Fatalf("%s: %v", medium, err)
		}
		if err := table.Close(); err != nil {
			t.Fatalf("%s: %v", medium, err) // idempotent
		}
	}
}

// TestTombstoneFilterDropsDeadEndpoints: with a predicate installed the
// table drops tuples touching tombstoned users, whichever end they are
// on; with no predicate the batch is passed through uncopied.
func TestTombstoneFilterDropsDeadEndpoints(t *testing.T) {
	a, err := partition.NewAssignment([]uint32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, medium := range media {
		table := newTable(t, medium, a, 0)
		table.SetTombstones(func(u uint32) bool { return u == 2 })
		// (0,2) has a dead destination, (2,1) a dead source.
		if err := table.AddBatch([]Tuple{{0, 2}, {2, 1}, {0, 1}, {2, 3}, {3, 2}, {1, 3}}); err != nil {
			t.Fatalf("%s: %v", medium, err)
		}
		if got := table.Added(); got != 2 {
			t.Errorf("%s: Added = %d, want 2 surviving tuples", medium, got)
		}
		var all []Tuple
		for _, ts := range drain(t, table, 2, false).shards {
			all = append(all, ts...)
		}
		sortTuples(all)
		want := []Tuple{{0, 1}, {1, 3}}
		if !reflect.DeepEqual(all, want) {
			t.Errorf("%s: surviving tuples %v, want %v", medium, all, want)
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
