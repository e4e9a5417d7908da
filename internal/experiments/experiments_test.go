package experiments

import (
	"context"
	"testing"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/pigraph"
)

// smallSpecs returns downsized dataset specs so the experiment paths
// run fast under test; the full presets are exercised by cmd/table1
// and the benchmarks.
func smallSpecs() []dataset.GraphSpec {
	return []dataset.GraphSpec{
		{Name: "small-skewed", Nodes: 400, Edges: 3000, Alpha: 0.8, Seed: 1},
		{Name: "small-flat", Nodes: 400, Edges: 1200, Alpha: 0.1, Seed: 2},
	}
}

func TestTable1Rows(t *testing.T) {
	rows, err := Table1(smallSpecs(), pigraph.Heuristics())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		seq, hl, lh := row.Ops["Seq."], row.Ops["High-Low"], row.Ops["Low-High"]
		if seq == 0 || hl == 0 || lh == 0 {
			t.Fatalf("%s: missing ops: %+v", row.Dataset, row.Ops)
		}
		if hl > seq || lh > seq {
			t.Errorf("%s: degree heuristics should not lose to sequential (%d/%d vs %d)",
				row.Dataset, hl, lh, seq)
		}
	}
}

func TestPaperTable1Shape(t *testing.T) {
	paper := PaperTable1()
	if len(paper) != 6 {
		t.Fatalf("paper table should have 6 datasets, has %d", len(paper))
	}
	for ds, ops := range paper {
		seq := ops["Seq."]
		for h, v := range ops {
			if v <= 0 {
				t.Errorf("%s/%s: non-positive ops", ds, h)
			}
			if h != "Seq." && v >= seq {
				t.Errorf("%s: paper reports %s (%d) beating Seq. (%d)?", ds, h, v, seq)
			}
		}
	}
}

func TestRunEngineAndSweeps(t *testing.T) {
	ctx := context.Background()
	point, err := RunEngine(ctx, EngineConfig{
		Label: "tiny", Users: 120, Iterations: 1,
		Options: core.Options{K: 4, NumPartitions: 4, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if point.IterTime <= 0 || point.Ops == 0 {
		t.Errorf("sweep point not measured: %+v", point)
	}

	sizes, err := GraphSizeSweep(ctx, []int{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0].Label != "users=100" {
		t.Errorf("size sweep wrong: %+v", sizes)
	}

	mems, err := MemorySweep(ctx, 150, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(mems) != 2 {
		t.Fatalf("memory sweep wrong length")
	}
	// More partitions -> more load/unload operations.
	if mems[1].Ops <= mems[0].Ops {
		t.Errorf("m=4 should need more ops than m=2: %d vs %d", mems[1].Ops, mems[0].Ops)
	}

	threads, err := ThreadSweep(ctx, 120, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(threads) != 2 {
		t.Fatalf("thread sweep wrong length")
	}
}

func TestDiskProjectionOrdering(t *testing.T) {
	io := disk.Snapshot{Seeks: 100, BytesRead: 10 << 20, BytesWritten: 10 << 20}
	proj := DiskProjection(io)
	if !(proj["hdd"] > proj["ssd"] && proj["ssd"] > proj["nvme"]) {
		t.Errorf("projection ordering wrong: %v", proj)
	}
	for name, d := range proj {
		if d <= 0 {
			t.Errorf("%s: non-positive modeled time %v", name, d)
		}
	}
}

// TestNetstoreSweep: FW-8's points all perform the same summed op
// count (the tape is store-independent), the single-spindle point has
// exactly one device entry, and every netstore point carries one
// accounting entry per shard with balanced per-shard books.
func TestNetstoreSweep(t *testing.T) {
	points, err := NetstoreSweep(context.Background(), 200, 2, []int{1, 2}, "nvme")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want single-spindle + 2 shard counts", len(points))
	}
	for i, p := range points {
		if p.Ops != points[0].Ops {
			t.Errorf("%s: %d ops, single-spindle did %d — the tape must not depend on the store", p.Label, p.Ops, points[0].Ops)
		}
		wantDevices := 1 // the local spindle
		if i > 0 {
			wantDevices = 1 + i // plus one per shard (shards=1, then 2)
		}
		if len(p.Devices) != wantDevices {
			t.Fatalf("%s: %d device entries, want %d: %+v", p.Label, len(p.Devices), wantDevices, p.Devices)
		}
		for _, d := range p.Devices {
			if d.Slept+d.Debt != d.Modeled {
				t.Errorf("%s device %s: books unbalanced (%v + %v != %v)", p.Label, d.Name, d.Slept, d.Debt, d.Modeled)
			}
		}
	}
}

func TestBuildWorkerSweep(t *testing.T) {
	points, err := BuildWorkerSweep(context.Background(), 200, []int{1, 2}, 2, "nvme")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want one per worker count", len(points))
	}
	for _, p := range points {
		if p.PartitionTime <= 0 || p.TuplesTime <= 0 {
			t.Errorf("%s: build-phase times not measured: %+v", p.Label, p)
		}
		// The build width never changes the tape or the tuple set.
		if p.Ops != points[0].Ops {
			t.Errorf("%s: %d ops, serial build did %d — accounting must not depend on BuildWorkers", p.Label, p.Ops, points[0].Ops)
		}
	}
	if points[0].Label != "buildworkers=1/shards=2/nvme" {
		t.Errorf("unexpected label %q", points[0].Label)
	}
}

// TestReplicaSweep: FW-10's rungs replay the same-size read plan at
// every (replica count, skew) pair, so every rung serves the full op
// count; percentiles must be measured and ordered.
func TestReplicaSweep(t *testing.T) {
	points, err := ReplicaSweep(context.Background(), 200, []int{0, 1}, []float64{1.2, 1.6}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want one per (replica count, skew) pair", len(points))
	}
	wantReplicas := []int{0, 0, 1, 1}
	wantSkew := []float64{1.2, 1.6, 1.2, 1.6}
	for i, p := range points {
		if p.Ops != 200 {
			t.Errorf("%s: served %d ops, want the full plan (200)", p.Label, p.Ops)
		}
		if p.P50 <= 0 || p.P99 < p.P50 {
			t.Errorf("%s: bad percentiles p50=%v p99=%v", p.Label, p.P50, p.P99)
		}
		if p.Replicas != wantReplicas[i] || p.Skew != wantSkew[i] {
			t.Errorf("point %d: replicas=%d skew=%g, want %d/%g", i, p.Replicas, p.Skew, wantReplicas[i], wantSkew[i])
		}
	}
	if points[0].Label != "replicas=0/skew=1.20" {
		t.Errorf("unexpected label %q", points[0].Label)
	}
	if points[3].Label != "replicas=1/skew=1.60" {
		t.Errorf("unexpected label %q", points[3].Label)
	}

	if _, err := ReplicaSweep(context.Background(), 200, []int{0}, nil, 100); err == nil {
		t.Error("empty skew list accepted")
	}
}
