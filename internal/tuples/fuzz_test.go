package tuples

import (
	"reflect"
	"testing"

	"knnpc/internal/disk"
	"knnpc/internal/partition"
)

// FuzzDiskTableShards turns bytes into a tuple multiset over m ≤ 8
// partitions — data[0] picks m, data[1] the spill batch (its high bit
// the medium), data[2] the AddBatch chunk size, data[3] the assignment
// of 32 users, every later byte pair a tuple — and consumes every shard
// once by a byte-chosen mix of Shard(i, j), Shard(j, i) and ShardAhead
// in either orientation. What is served must be exactly the
// de-duplicated multiset of (min, max) pairs, shard by shard in served
// order, and the
// mirror of a consumed shard must serve nil. A second table over the
// same scratch then takes the first half of the stream: its spill
// files are the first table's, rewritten shorter, and it must serve
// exactly its own multiset, never the first table's tail.
func FuzzDiskTableShards(f *testing.F) {
	f.Add([]byte{3, 1, 2, 5, 0, 1, 1, 0, 2, 9, 9, 2, 0, 1, 7, 7, 30, 4})
	f.Add([]byte{0, 0x80, 0, 0, 1, 2, 2, 1})
	f.Add([]byte{7, 3, 15, 200, 31, 0, 0, 31, 5, 12, 12, 5, 16, 16, 8, 24, 24, 8, 1, 2, 3, 4})
	// One tuple per spill record over two partitions: the second table
	// rewrites every spill file shorter than the first left it.
	f.Add([]byte{1, 0, 0, 1, 0, 1, 0, 3, 1, 0, 3, 0, 0, 5, 5, 0, 2, 7, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		const users = 32
		m := 1 + int(data[0])%8
		of := make([]uint32, users)
		for u := range of {
			of[u] = uint32((u*int(data[3]|1) + int(data[3])) % m)
		}
		a, err := partition.NewAssignment(of, m)
		if err != nil {
			t.Fatal(err)
		}
		var scratch *disk.Scratch
		if data[1]&0x80 == 0 {
			if scratch, err = disk.NewScratch(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			defer scratch.Close()
		}

		body := data[4:]
		if len(body) > 1024 {
			body = body[:1024]
		}
		stream := make([]Tuple, 0, len(body)/2)
		for i := 0; i+1 < len(body); i += 2 {
			stream = append(stream, Tuple{S: uint32(body[i]) % users, D: uint32(body[i+1]) % users})
		}
		for _, part := range [][]Tuple{stream, stream[:len(stream)/2]} {
			serveAll(t, NewDiskTable(a, scratch, new(disk.IOStats), 1+int(data[1]&0x7f)%8), a, data, part)
		}
	})
}

// serveAll adds stream to table in data's chunk size, then consumes
// every shard in data's mix of orientations and read-aheads and closes
// the table, failing t unless what is served is exactly stream's
// de-duplicated multiset of (min, max) pairs.
func serveAll(t *testing.T, table *DiskTable, a *partition.Assignment, data []byte, stream []Tuple) {
	t.Helper()
	defer table.Close()
	chunk := 1 + int(data[2])%16
	for lo := 0; lo < len(stream); lo += chunk {
		if err := table.AddBatch(stream[lo:min(lo+chunk, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}

	want := oracle(a, stream, nil)
	if got := table.ShardCounts(); !reflect.DeepEqual(got, want.counts) {
		t.Fatalf("ShardCounts = %v, oracle %v", got, want.counts)
	}
	m := a.NumPartitions()
	served := make(map[ShardID][]Tuple)
	k := 0
	for i := uint32(0); int(i) < m; i++ {
		for j := i; int(j) < m; j++ {
			x, y := i, j
			choice := data[k%len(data)] >> (k % 3)
			k++
			if choice&1 != 0 {
				x, y = y, x
			}
			if choice&2 != 0 {
				table.ShardAhead(y, x) // announce one way, consume the other
			}
			ts, err := table.Shard(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if ts != nil {
				served[ShardID{I: i, J: j}] = ts
			}
			if err := checkShard(a, ShardID{I: i, J: j}, ts); err != nil {
				t.Fatal(err)
			}
			if again, err := table.Shard(y, x); err != nil || again != nil {
				t.Fatalf("shard {%d,%d} served twice: %d tuples, %v", i, j, len(again), err)
			}
		}
	}
	if !reflect.DeepEqual(served, want.shards) {
		t.Fatalf("served shards diverge from the de-duplicated (min, max) multiset:\ngot  %v\nwant %v", served, want.shards)
	}
	if err := table.Close(); err != nil {
		t.Fatal(err)
	}
}
