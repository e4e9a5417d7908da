package core

import (
	"context"
	"slices"
	"testing"

	"knnpc/internal/dataset"
	"knnpc/internal/profile"
)

// BenchmarkApplyDeltas times one ApplyDeltas pass at the churn-delta
// workload's shape: 4,000 users after three full iterations, 16
// sequential adds a pass and, from the fifth pass on, 8 deletes of the
// oldest added users, with a full iteration (untimed) whenever the
// staleness threshold calls for one; iter-hdd's options without device
// emulation. Besides ns/op and allocs/op (per pass) it reports the
// bytes the postings index and the in-lists hold after the last pass.
// Run it with a fixed count, e.g. -benchtime 250x, so every run covers
// the same passes:
//
//	go test -run '^$' -bench ApplyDeltas -benchtime 250x ./internal/core
func BenchmarkApplyDeltas(b *testing.B) {
	const base, pool, adds, dels, delFrom = 4000, 4000, 16, 8, 4
	vecs, _, err := dataset.RatingsProfiles(base+pool, 4*base, 25, 8, 97531)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{
		K: 16, NumPartitions: 8, Slots: 4,
		PrefetchDepth: 4, AsyncWriteback: true, ShardPrefetch: 4,
		ExecWorkers: 2, OnDisk: true, ScratchDir: b.TempDir(),
		StalenessThreshold: 0.25, Seed: 97531,
	}
	eng, err := New(profile.NewStoreFromVectors(slices.Clone(vecs[:base])), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for range 3 {
		if _, err := eng.Iterate(ctx); err != nil {
			b.Fatal(err)
		}
	}
	nextAdd, nextDel := uint32(base), uint32(base)
	b.ReportAllocs()
	b.ResetTimer()
	for pass := range b.N {
		for range adds {
			eng.EnqueueAddUser(nextAdd, vecs[base+int(nextAdd-base)%pool])
			nextAdd++
		}
		if pass >= delFrom {
			for range dels {
				eng.EnqueueDelUser(nextDel)
				nextDel++
			}
		}
		if _, err := eng.ApplyDeltas(); err != nil {
			b.Fatal(err)
		}
		if eng.NeedsIteration() {
			b.StopTimer()
			if _, err := eng.Iterate(ctx); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if eng.index != nil {
		b.ReportMetric(float64(eng.index.Bytes()), "index-B")
	}
	b.ReportMetric(float64(eng.in.Bytes()), "inlists-B")
}
