// Package experiments programmatically regenerates every table and
// figure of the paper plus the future-work sweeps, returning structured
// rows that the command-line harnesses print and EXPERIMENTS.md
// records. Keeping the experiment logic in one library guarantees the
// numbers in documentation, commands and benchmarks come from the same
// code.
package experiments

import (
	"context"
	"fmt"
	"time"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
)

// Table1Row is one dataset row of the paper's Table 1.
type Table1Row struct {
	Dataset string
	Nodes   int
	Edges   int
	// Ops maps heuristic name to simulated load/unload operations.
	Ops map[string]int64
}

// PaperTable1 returns the values printed in the paper's Table 1,
// keyed by dataset then heuristic name.
func PaperTable1() map[string]map[string]int64 {
	return map[string]map[string]int64{
		dataset.WikiVote:     {"Seq.": 211856, "High-Low": 204706, "Low-High": 202290},
		dataset.GeneralRel:   {"Seq.": 34506, "High-Low": 32220, "Low-High": 31256},
		dataset.HighEnergy:   {"Seq.": 252754, "High-Low": 242132, "Low-High": 240872},
		dataset.AstroPhysics: {"Seq.": 420442, "High-Low": 400050, "Low-High": 401770},
		dataset.Email:        {"Seq.": 399604, "High-Low": 382928, "Low-High": 379312},
		dataset.Gnutella:     {"Seq.": 157040, "High-Low": 144072, "Low-High": 132710},
	}
}

// Table1 regenerates the paper's Table 1 over the given datasets and
// heuristics: each dataset graph is used as PI-graph structure and
// each heuristic's schedule is validated and simulated.
func Table1(specs []dataset.GraphSpec, heuristics []pigraph.Heuristic) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(specs))
	for _, spec := range specs {
		dg, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("experiments: generate %s: %w", spec.Name, err)
		}
		pi, err := pigraph.FromDigraph(dg)
		if err != nil {
			return nil, fmt.Errorf("experiments: PI graph of %s: %w", spec.Name, err)
		}
		row := Table1Row{
			Dataset: spec.Name,
			Nodes:   spec.Nodes,
			Edges:   spec.Edges,
			Ops:     make(map[string]int64, len(heuristics)),
		}
		for _, h := range heuristics {
			schedule := h.Plan(pi)
			if err := schedule.Validate(pi); err != nil {
				return nil, fmt.Errorf("experiments: %s schedule on %s: %w", h.Name(), spec.Name, err)
			}
			// The zero options are the paper's setting: two slots, one cursor.
			sim, err := schedule.Simulate(pigraph.ExecOptions{})
			if err != nil {
				return nil, fmt.Errorf("experiments: simulate %s on %s: %w", h.Name(), spec.Name, err)
			}
			row.Ops[h.Name()] = sim.Ops()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SweepPoint is one measured configuration of an engine sweep.
type SweepPoint struct {
	// Label names the swept value (e.g. "users=2000").
	Label string
	// IterTime is the mean wall time of one full iteration.
	IterTime time.Duration
	// ScoreTime is the mean wall time of phase 4 alone — the phase
	// the pipelined executor accelerates.
	ScoreTime time.Duration
	// PartitionTime and TuplesTime are the mean wall times of phases 1
	// and 2 — the build side the BuildWorkers pool accelerates.
	PartitionTime time.Duration
	TuplesTime    time.Duration
	// Ops is the load/unload operations of the last iteration.
	Ops int64
	// PrefetchedLoads is the last iteration's asynchronously issued
	// loads (0 when running serial).
	PrefetchedLoads int64
	// AsyncUnloads is the last iteration's background write-backs
	// (0 without AsyncWriteback).
	AsyncUnloads int64
	// PrefetchedShardBytes is the last iteration's tuple-shard volume
	// read ahead of the cursor (0 without ShardPrefetch).
	PrefetchedShardBytes int64
	// IO is the I/O delta of the last iteration.
	IO disk.Snapshot
	// Devices is the cumulative per-spindle emulated-device accounting
	// at the end of the run — one entry per state-store shard (plus the
	// local spindle when file-backed I/O is emulated). Empty without
	// emulation.
	Devices []disk.DeviceAccounting
}

// EngineConfig describes one engine sweep point: the workload's shape
// and the engine's own options, passed through as they are.
type EngineConfig struct {
	Label      string
	Users      int
	Iterations int
	// EmulateDisk names the disk model whose latency is enforced on
	// state I/O ("" = none) so latency-bound comparisons are
	// host-neutral; it takes the place of Options.EmulateDisk.
	EmulateDisk string
	core.Options
}

// RunEngine measures one engine configuration: it generates a clustered
// ratings workload, runs the requested iterations, and reports the mean
// iteration time plus the final iteration's ops and I/O.
func RunEngine(ctx context.Context, cfg EngineConfig) (SweepPoint, error) {
	point := SweepPoint{Label: cfg.Label}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 2
	}
	vecs, _, err := dataset.RatingsProfiles(cfg.Users, 4*cfg.Users, 25, 8, cfg.Seed)
	if err != nil {
		return point, err
	}
	emulate, err := disk.ResolveModel(cfg.EmulateDisk)
	if err != nil {
		return point, err
	}
	opts := cfg.Options
	opts.EmulateDisk = emulate
	eng, err := core.New(profile.NewStoreFromVectors(vecs), opts)
	if err != nil {
		return point, err
	}
	defer eng.Close()

	var total, score, part, tuples time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		st, err := eng.Iterate(ctx)
		if err != nil {
			return point, err
		}
		total += st.Phases.Total()
		score += st.Phases.Score
		part += st.Phases.Partition
		tuples += st.Phases.Tuples
		point.Ops = st.Ops()
		point.PrefetchedLoads = st.PrefetchedLoads
		point.AsyncUnloads = st.AsyncUnloads
		point.PrefetchedShardBytes = st.PrefetchedShardBytes
		point.IO = st.IO
	}
	point.IterTime = total / time.Duration(cfg.Iterations)
	point.ScoreTime = score / time.Duration(cfg.Iterations)
	point.PartitionTime = part / time.Duration(cfg.Iterations)
	point.TuplesTime = tuples / time.Duration(cfg.Iterations)
	point.Devices = eng.IOStats().Devices
	return point, nil
}

// GraphSizeSweep measures iteration time against user count (FW-1).
func GraphSizeSweep(ctx context.Context, sizes []int) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(sizes))
	for _, n := range sizes {
		p, err := RunEngine(ctx, EngineConfig{
			Label: fmt.Sprintf("users=%d", n), Users: n, Iterations: 2,
			Options: core.Options{K: 10, NumPartitions: 8, OnDisk: true, Seed: 1},
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// MemorySweep measures ops and I/O against the partition count m
// (FW-2): larger m = smaller resident footprint bought with more
// load/unload operations.
func MemorySweep(ctx context.Context, users int, ms []int) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(ms))
	for _, m := range ms {
		p, err := RunEngine(ctx, EngineConfig{
			Label: fmt.Sprintf("m=%d", m), Users: users, Iterations: 2,
			Options: core.Options{K: 10, NumPartitions: m, OnDisk: true, Seed: 1},
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// ThreadSweep measures iteration time against scoring workers (FW-4).
func ThreadSweep(ctx context.Context, users int, workers []int) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(workers))
	for _, w := range workers {
		p, err := RunEngine(ctx, EngineConfig{
			Label: fmt.Sprintf("workers=%d", w), Users: users, Iterations: 2,
			Options: core.Options{K: 10, NumPartitions: 8, Workers: w, Seed: 1},
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// PrefetchSweep contrasts serial phase-4 execution with the pipelined
// executor at several lookahead depths on the on-disk configuration
// (FW-5): every point performs the identical Loads/Unloads op
// sequence, so differences are pure I/O–compute overlap. The model
// ("hdd", "ssd", ... or "" for raw host speed) enforces device latency
// on state I/O, which is what makes the comparison meaningful on hosts
// whose page cache hides real disk cost.
func PrefetchSweep(ctx context.Context, users int, depths []int, workers int, model string) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(depths))
	for _, d := range depths {
		label := "serial"
		if d > 0 {
			label = fmt.Sprintf("prefetch=%d", d)
		}
		if model != "" {
			label += "/" + model
		}
		p, err := RunEngine(ctx, EngineConfig{
			Label: label, Users: users, Iterations: 2, EmulateDisk: model,
			Options: core.Options{
				K: 10, NumPartitions: 8, Workers: workers, PrefetchDepth: d,
				OnDisk: true, Seed: 1,
			},
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// PipelineStage is one configuration of the FW-6 pipeline ablation.
type PipelineStage struct {
	Label          string
	PrefetchDepth  int
	AsyncWriteback bool
	ShardPrefetch  int
}

// PipelineStages returns the FW-6 ablation ladder: each stage enables
// one more of the three overlapped phase-4 I/O streams, so the table
// attributes the win stream by stream.
func PipelineStages(depth int) []PipelineStage {
	return []PipelineStage{
		{Label: "serial"},
		{Label: fmt.Sprintf("prefetch=%d", depth), PrefetchDepth: depth},
		{Label: fmt.Sprintf("prefetch=%d+writeback", depth), PrefetchDepth: depth, AsyncWriteback: true},
		{Label: fmt.Sprintf("prefetch=%d+writeback+shardahead=%d", depth, depth),
			PrefetchDepth: depth, AsyncWriteback: true, ShardPrefetch: depth},
	}
}

// PipelineSweep runs the FW-6 ablation: the same on-disk workload under
// an emulated disk model, adding one pipelined I/O stream per stage
// (load prefetch, then async write-back, then shard read-ahead). Every
// stage performs the identical Loads/Unloads op sequence; phase-4 time
// differences are pure I/O–compute overlap.
func PipelineSweep(ctx context.Context, users, depth, workers int, model string) ([]SweepPoint, error) {
	stages := PipelineStages(depth)
	points := make([]SweepPoint, 0, len(stages))
	for _, st := range stages {
		label := st.Label
		if model != "" {
			label += "/" + model
		}
		p, err := RunEngine(ctx, EngineConfig{
			Label: label, Users: users, Iterations: 2, EmulateDisk: model,
			Options: core.Options{
				K: 10, NumPartitions: 8, Workers: workers,
				PrefetchDepth: st.PrefetchDepth, AsyncWriteback: st.AsyncWriteback, ShardPrefetch: st.ShardPrefetch,
				OnDisk: true, Seed: 1,
			},
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// ExecWorkerSweep runs the FW-7 sweep: phase-4 execution sharded
// across W tape workers (full three-stream pipeline per worker, wider
// slot budget so the segments have real lookahead room) on the same
// emulated-disk workload. Totals stay deterministic per (Slots, W) —
// each point reports its summed op count — while wall time shows how
// much scoring the shared-spindle device leaves overlappable.
func ExecWorkerSweep(ctx context.Context, users int, workerCounts []int, model string) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(workerCounts))
	for _, w := range workerCounts {
		label := fmt.Sprintf("execworkers=%d", w)
		if model != "" {
			label += "/" + model
		}
		p, err := RunEngine(ctx, EngineConfig{
			Label: label, Users: users, Iterations: 2, EmulateDisk: model,
			Options: core.Options{
				K: 10, NumPartitions: 8, Workers: 2, ExecWorkers: w,
				Slots: 4, PrefetchDepth: 2, AsyncWriteback: true, ShardPrefetch: 2,
				OnDisk: true, Seed: 1,
			},
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// NetstoreSweep runs the FW-8 sweep: phase 4 at a fixed worker count,
// first on the single shared spindle (the PR-3 ceiling), then over the
// network state store at increasing shard counts — same full
// three-stream pipeline per worker throughout. Each netstore point's
// Devices carries per-shard modeled/slept device time, so the table
// shows the queueing ceiling moving: one spindle's modeled time divides
// across N shards that sleep concurrently, and phase-4 wall time drops
// even though per-worker op tapes (and the summed op count) are
// unchanged.
func NetstoreSweep(ctx context.Context, users, workers int, shardCounts []int, model string) ([]SweepPoint, error) {
	configs := make([]EngineConfig, 0, 1+len(shardCounts))
	base := EngineConfig{
		Users: users, Iterations: 2, EmulateDisk: model,
		Options: core.Options{
			K: 10, NumPartitions: 8, Workers: 2, ExecWorkers: workers,
			Slots: 4, PrefetchDepth: 2, AsyncWriteback: true, ShardPrefetch: 2,
			OnDisk: true, Seed: 1,
		},
	}
	single := base
	single.Label = fmt.Sprintf("single-spindle/workers=%d/%s", workers, model)
	configs = append(configs, single)
	for _, n := range shardCounts {
		p := base
		p.NetStoreShards = n
		p.Label = fmt.Sprintf("netstore/workers=%d/shards=%d/%s", workers, n, model)
		configs = append(configs, p)
	}
	points := make([]SweepPoint, 0, len(configs))
	for _, cfg := range configs {
		p, err := RunEngine(ctx, cfg)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// BuildWorkerSweep runs the FW-9 sweep: the phase-1/2 build pool at
// increasing widths over the shard-per-spindle state store (the layout
// where the parallel build's state installs sleep on several emulated
// spindles concurrently), with a fixed pipelined phase 4. Tuple
// tallies, shard contents and the op tape are identical at every
// width; the per-phase wall times show the serial fraction of the
// iteration shrinking.
func BuildWorkerSweep(ctx context.Context, users int, workerCounts []int, shards int, model string) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(workerCounts))
	for _, w := range workerCounts {
		label := fmt.Sprintf("buildworkers=%d", w)
		if shards > 0 {
			label += fmt.Sprintf("/shards=%d", shards)
		}
		if model != "" {
			label += "/" + model
		}
		p, err := RunEngine(ctx, EngineConfig{
			Label: label, Users: users, Iterations: 2, EmulateDisk: model,
			Options: core.Options{
				K: 10, NumPartitions: 16, Workers: 2, ExecWorkers: 2, BuildWorkers: w,
				Slots: 4, PrefetchDepth: 2, AsyncWriteback: true, ShardPrefetch: 2,
				NetStoreShards: shards, OnDisk: true, Seed: 1,
			},
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// DiskProjection projects one iteration's measured I/O through the
// HDD/SSD/NVMe cost models (FW-3), returning modeled device time per
// model name.
func DiskProjection(io disk.Snapshot) map[string]time.Duration {
	out := make(map[string]time.Duration, 3)
	for _, m := range []disk.Model{disk.HDD, disk.SSD, disk.NVMe} {
		out[m.Name] = m.EstimateTime(io)
	}
	return out
}
