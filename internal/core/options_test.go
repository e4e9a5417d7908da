package core

import (
	"strings"
	"testing"

	"knnpc/internal/disk"
)

// TestOptionsValidate is the one table of option rules: each rejected
// case names the rule that must fire, and the accepted cases pin the
// combinations the rules must leave alone.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		users int    // 0 = 20
		want  string // "" = accepted
	}{
		{name: "defaults", opts: Options{K: 3}},
		{name: "full pipeline", opts: Options{K: 3, Slots: 3, PrefetchDepth: 2, AsyncWriteback: true, ShardPrefetch: 2, ExecWorkers: 2, BuildWorkers: 2}},
		{name: "emulated shard spindles without OnDisk", opts: Options{K: 3, NetStoreShards: 2, EmulateDisk: &disk.HDD}},
		{name: "serving cluster", opts: Options{K: 3, NetStoreShards: 2, PublishViews: true, NetStoreReplicas: true}},
		{name: "one shard per partition of a small graph", opts: Options{K: 2, NetStoreShards: 3}, users: 3},

		{name: "K=0", opts: Options{K: 0}, want: "K must be positive"},
		{name: "single user", opts: Options{K: 3}, users: 1, want: "at least 2 users"},
		{name: "m=1", opts: Options{K: 3, NumPartitions: 1}, want: "at least 2 partitions"},
		{name: "Slots=1", opts: Options{K: 3, Slots: 1}, want: "ExecOptions.Slots"},
		{name: "PrefetchDepth=-1", opts: Options{K: 3, PrefetchDepth: -1}, want: "ExecOptions.PrefetchDepth"},
		{name: "ShardPrefetch=-1", opts: Options{K: 3, ShardPrefetch: -1}, want: "ExecOptions.ShardAhead"},
		{name: "ExecWorkers=-1", opts: Options{K: 3, ExecWorkers: -1}, want: "ExecOptions.Workers"},
		{name: "BuildWorkers=-1", opts: Options{K: 3, BuildWorkers: -1}, want: "build worker count"},
		{name: "negative staleness threshold", opts: Options{K: 3, StalenessThreshold: -1}, want: "staleness threshold"},
		{name: "negative shard count", opts: Options{K: 3, NetStoreShards: -1}, want: "shard count"},
		{name: "NetStoreShards with NetStoreAddrs", opts: Options{K: 3, NetStoreShards: 2, NetStoreAddrs: []string{"x"}}, want: "mutually exclusive"},
		{name: "EmulateDisk without OnDisk", opts: Options{K: 3, EmulateDisk: &disk.HDD}, want: "EmulateDisk requires OnDisk"},
		{name: "PublishViews without a network store", opts: Options{K: 3, PublishViews: true}, want: "PublishViews requires"},
		{name: "NetStoreReplicas over external servers", opts: Options{K: 3, NetStoreAddrs: []string{"x"}, PublishViews: true, NetStoreReplicas: true}, want: "NetStoreReplicas requires"},
		{name: "NetStoreReplicas without PublishViews", opts: Options{K: 3, NetStoreShards: 2, NetStoreReplicas: true}, want: "without PublishViews"},
		{name: "more shards than partitions", opts: Options{K: 3, NumPartitions: 4, NetStoreShards: 5}, want: "5 state-store shards over 4 partitions"},
		{name: "more addresses than partitions", opts: Options{K: 3, NumPartitions: 2, NetStoreAddrs: []string{"a", "b", "c"}}, want: "3 state-store addresses over 2 partitions"},
		{name: "more shards than a small graph's partitions", opts: Options{K: 2, NetStoreShards: 4}, users: 3, want: "4 state-store shards over 3 partitions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			users := tc.users
			if users == 0 {
				users = 20
			}
			opts := tc.opts
			opts.applyDefaults()
			err := opts.validate(users)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// The tests below check that New, not only validate, refuses each
// family of bad options before it builds anything.

// TestPipelineOptionValidation rejects bad budgets at construction.
func TestPipelineOptionValidation(t *testing.T) {
	store := testStore(t, 20, 1)
	if _, err := New(store, Options{K: 3, Slots: 1}); err == nil {
		t.Error("Slots=1 accepted")
	}
	if _, err := New(store, Options{K: 3, PrefetchDepth: -1}); err == nil {
		t.Error("PrefetchDepth=-1 accepted")
	}
	if _, err := New(store, Options{K: 3, ShardPrefetch: -1}); err == nil {
		t.Error("ShardPrefetch=-1 accepted")
	}
	if _, err := New(store, Options{K: 3, EmulateDisk: &disk.HDD}); err == nil {
		t.Error("EmulateDisk without OnDisk accepted")
	}
}

// TestExecWorkersValidation rejects a negative worker count at
// construction, like every other phase-4 budget.
func TestExecWorkersValidation(t *testing.T) {
	store := testStore(t, 20, 1)
	if _, err := New(store, Options{K: 3, ExecWorkers: -1}); err == nil {
		t.Error("ExecWorkers=-1 accepted")
	}
}

// TestBuildWorkersValidation rejects a negative pool width at
// construction, like every other worker knob.
func TestBuildWorkersValidation(t *testing.T) {
	store := testStore(t, 20, 1)
	if _, err := New(store, Options{K: 3, BuildWorkers: -1}); err == nil {
		t.Error("BuildWorkers=-1 accepted")
	}
}

// TestServeOptionValidation rejects serving configs that cannot work.
func TestServeOptionValidation(t *testing.T) {
	store := testStore(t, 30, 1)
	if _, err := New(store, Options{K: 3, PublishViews: true}); err == nil {
		t.Error("PublishViews without a network store accepted")
	}
	if _, err := New(store, Options{K: 3, NetStoreReplicas: true, PublishViews: true}); err == nil {
		t.Error("NetStoreReplicas without NetStoreShards accepted")
	}
	if _, err := New(store, Options{K: 3, NetStoreShards: 2, NetStoreReplicas: true}); err == nil {
		t.Error("NetStoreReplicas without PublishViews accepted")
	}
}
