package netstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"knnpc/internal/disk"
)

func startCluster(t *testing.T, shards, parts int, model *disk.Model) (*Cluster, *Client) {
	t.Helper()
	cluster, err := StartCluster(shards, parts, model)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	client, err := Dial(cluster.Addrs(), parts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return cluster, client
}

// TestPutGetRoundTrip: base blobs survive the wire byte-for-byte on
// every shard of a multi-shard cluster.
func TestPutGetRoundTrip(t *testing.T) {
	const parts = 7
	_, client := startCluster(t, 3, parts, nil)
	for p := uint32(0); p < parts; p++ {
		blob := []byte(fmt.Sprintf("state-of-%d", p))
		if err := client.PutBase(p, blob); err != nil {
			t.Fatalf("put %d: %v", p, err)
		}
	}
	for p := uint32(0); p < parts; p++ {
		got, err := client.Get(p)
		if err != nil {
			t.Fatalf("get %d: %v", p, err)
		}
		if string(got) != fmt.Sprintf("state-of-%d", p) {
			t.Fatalf("get %d: got %q", p, got)
		}
	}
	if _, err := client.Get(99); err == nil {
		t.Fatal("get of out-of-range partition succeeded")
	}
}

// TestLeaseFencing pins the write-back fencing semantics: a partial PUT
// is admitted only under a live token; released tokens, never-granted
// tokens, and tokens revoked by a new base PUT (the new-epoch rule) all
// fail with ErrStaleLease.
func TestLeaseFencing(t *testing.T) {
	_, client := startCluster(t, 2, 4, nil)
	if err := client.PutBase(1, []byte("base")); err != nil {
		t.Fatal(err)
	}

	// Live lease: partial admitted.
	tok, err := client.Lease(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PutPartial(1, tok, []byte("p1")); err != nil {
		t.Fatalf("partial under live lease rejected: %v", err)
	}

	// Released lease: rejected.
	if err := client.Release(1, tok); err != nil {
		t.Fatal(err)
	}
	if err := client.PutPartial(1, tok, []byte("p2")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("partial under released lease: got %v, want ErrStaleLease", err)
	}

	// Never-granted token: rejected.
	if err := client.PutPartial(1, 424242, []byte("p3")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("partial under fabricated token: got %v, want ErrStaleLease", err)
	}

	// A new base PUT revokes outstanding leases (new epoch): the zombie
	// holder's write-back must fail.
	zombie, err := client.Lease(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PutBase(1, []byte("base-v2")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutPartial(1, zombie, []byte("late")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("partial under revoked lease: got %v, want ErrStaleLease", err)
	}
	// Double release of the revoked token is also stale.
	if err := client.Release(1, zombie); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("release of revoked lease: got %v, want ErrStaleLease", err)
	}

	// Leasing an unknown partition fails.
	if _, err := client.Lease(3); err == nil {
		t.Fatal("lease of partition with no state succeeded")
	}
}

// TestOverlappingLeases: many workers hold the same partition at once,
// each with its own token, and every partial lands.
func TestOverlappingLeases(t *testing.T) {
	_, client := startCluster(t, 1, 2, nil)
	if err := client.PutBase(0, []byte("base")); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tok, err := client.Lease(0)
			if err == nil {
				err = client.PutPartial(0, tok, []byte{byte(w)})
			}
			if err == nil {
				err = client.Release(0, tok)
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	var items []CollectItem
	if err := client.Collect(func(it CollectItem) error { items = append(items, it); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || len(items[0].Partials) != workers {
		t.Fatalf("collected %d items / %d partials, want 1 / %d", len(items), len(items[0].Partials), workers)
	}
}

// TestCollectOrderAndContent: COLLECT streams ascending partition ids
// globally across shards, with base and partials intact, and CLEAR
// resets everything.
func TestCollectOrderAndContent(t *testing.T) {
	const parts = 9
	_, client := startCluster(t, 3, parts, nil)
	for p := uint32(0); p < parts; p++ {
		if err := client.PutBase(p, []byte{byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	tok, err := client.Lease(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PutPartial(4, tok, []byte("partial-4")); err != nil {
		t.Fatal(err)
	}

	var got []CollectItem
	if err := client.Collect(func(it CollectItem) error { got = append(got, it); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != parts {
		t.Fatalf("collected %d partitions, want %d", len(got), parts)
	}
	for i, it := range got {
		if it.Partition != uint32(i) {
			t.Fatalf("item %d is partition %d — not ascending id order", i, it.Partition)
		}
		if len(it.Base) != 1 || it.Base[0] != byte(i) {
			t.Fatalf("partition %d base corrupted: %v", i, it.Base)
		}
		wantPartials := 0
		if i == 4 {
			wantPartials = 1
		}
		if len(it.Partials) != wantPartials {
			t.Fatalf("partition %d has %d partials, want %d", i, len(it.Partials), wantPartials)
		}
	}

	if err := client.Clear(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := client.Collect(func(CollectItem) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("%d partitions survived CLEAR", count)
	}
}

// TestShardDevicesAccountIndependently: with emulation on, each shard's
// spindle accrues its own modeled time and the slept+debt==modeled
// invariant holds per shard — the accounting knnrun prints per spindle.
func TestShardDevicesAccountIndependently(t *testing.T) {
	cluster, client := startCluster(t, 2, 4, &disk.HDD)
	blob := make([]byte, 32<<10)
	for p := uint32(0); p < 4; p++ {
		if err := client.PutBase(p, blob); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []uint32{0, 1} { // shard 0 only
		if _, err := client.Get(p); err != nil {
			t.Fatal(err)
		}
	}
	devs := cluster.Devices()
	if len(devs) != 2 {
		t.Fatalf("%d devices", len(devs))
	}
	for i, d := range devs {
		modeled, slept, debt := d.Accounting()
		if modeled == 0 {
			t.Fatalf("shard %d device never charged", i)
		}
		if slept+debt != modeled {
			t.Fatalf("shard %d: slept %v + debt %v != modeled %v", i, slept, debt, modeled)
		}
	}
	m0, _, _ := devs[0].Accounting()
	m1, _, _ := devs[1].Accounting()
	if m0 <= m1 {
		t.Fatalf("shard 0 served 2 extra reads but modeled %v <= shard 1's %v", m0, m1)
	}
}

// TestConcurrentClientsAcrossShards: two independent clients (two
// "worker processes") hammer all shards concurrently without
// corrupting state — the cross-process contract of the store.
func TestConcurrentClientsAcrossShards(t *testing.T) {
	const parts = 8
	cluster, clientA := startCluster(t, 4, parts, nil)
	clientB, err := Dial(cluster.Addrs(), parts)
	if err != nil {
		t.Fatal(err)
	}
	defer clientB.Close()

	for p := uint32(0); p < parts; p++ {
		if err := clientA.PutBase(p, []byte{byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2*parts)
	for i, client := range []*Client{clientA, clientB} {
		for p := uint32(0); p < parts; p++ {
			wg.Add(1)
			go func(i int, client *Client, p uint32) {
				defer wg.Done()
				for round := 0; round < 5; round++ {
					tok, err := client.Lease(p)
					if err == nil {
						err = client.PutPartial(p, tok, []byte{byte(p), byte(round)})
					}
					if err == nil {
						err = client.Release(p, tok)
					}
					if err == nil {
						_, err = client.Get(p)
					}
					if err != nil {
						errs[i*parts+int(p)] = err
						return
					}
				}
			}(i, client, p)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	if err := clientA.Collect(func(it CollectItem) error { total += len(it.Partials); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := 2 * parts * 5; total != want {
		t.Fatalf("collected %d partials, want %d", total, want)
	}
}

// TestParseAddrs: a shard list keeps its order and trims spaces, and
// any empty entry — leading, trailing, doubled or the whole list —
// fails, since dropping it would shift every later shard's range.
func TestParseAddrs(t *testing.T) {
	for list, want := range map[string][]string{
		"127.0.0.1:7701":          {"127.0.0.1:7701"},
		"h1:1, h2:2":              {"h1:1", "h2:2"},
		" b:2 ,a:1,c:3 ":          {"b:2", "a:1", "c:3"},
		"127.0.0.1:0,127.0.0.1:0": {"127.0.0.1:0", "127.0.0.1:0"},
	} {
		got, err := ParseAddrs(list)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("ParseAddrs(%q) = %q, %v; want %q", list, got, err, want)
		}
	}
	for _, bad := range []string{"", " ", "127.0.0.1:0,", ",127.0.0.1:0", "127.0.0.1:0,,127.0.0.1:0", "a, ,b"} {
		if got, err := ParseAddrs(bad); err == nil {
			t.Errorf("ParseAddrs(%q) = %q, want an error", bad, got)
		}
	}
}
