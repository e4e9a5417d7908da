package serve

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/fault"
	"knnpc/internal/load"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// degradeFixture is fixture() with the tiers handed back, so tests can
// kill them one at a time.
func degradeFixture(t *testing.T) (*netstore.Cluster, *netstore.ReplicaSet, *Server) {
	t.Helper()
	cluster, err := netstore.StartCluster(2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	primary, err := netstore.Dial(cluster.Addrs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for p := uint32(0); p < 4; p++ {
		if err := primary.PutBase(p, []byte("state")); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := profile.NewVector([]profile.Entry{{Item: 11, Weight: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	view := netstore.EncodeView([]netstore.ViewEntry{
		{User: 7, Neighbors: []uint32{1, 2, 3}, Profile: vec.AppendBinary(nil)},
	})
	if err := primary.PutView(1, view); err != nil {
		t.Fatal(err)
	}
	reps, err := netstore.StartReplicas(cluster.Addrs(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reps.Close() })
	srv, err := New(Config{Primaries: cluster.Addrs(), Replicas: reps.Addrs(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return cluster, reps, srv
}

// TestReplicaDeathFallsBackToPrimaries: with the whole replica tier
// down, lookups still answer — from the primaries — and the fallback
// is booked in /v1/stats.
func TestReplicaDeathFallsBackToPrimaries(t *testing.T) {
	_, reps, srv := degradeFixture(t)
	h := srv.Mux()

	// Healthy path first: the replica tier answers, no fallback.
	var nr api.NeighborsResponse
	get(t, h, "/v1/neighbors/7", http.StatusOK, &nr)
	if srv.fallbacks.Load() != 0 {
		t.Fatalf("healthy lookup booked %d fallbacks", srv.fallbacks.Load())
	}

	reps.Close()
	get(t, h, "/v1/neighbors/7", http.StatusOK, &nr)
	if len(nr.Neighbors) != 3 {
		t.Fatalf("degraded lookup answered %+v", nr)
	}
	var pr api.ProfileResponse
	get(t, h, "/v1/profile/7", http.StatusOK, &pr)
	var stats api.StatsResponse
	get(t, h, "/v1/stats", http.StatusOK, &stats)
	if stats.ReadFallbacks < 2 {
		t.Fatalf("read_fallbacks = %d, want ≥ 2", stats.ReadFallbacks)
	}
	// A true miss must keep answering 404, not fall back into a 502.
	get(t, h, "/v1/neighbors/4040", http.StatusNotFound, nil)
}

// TestHealthReportsPerTier: /healthz degrades tier by tier — 200
// "degraded" with only the replica tier down (the front end still
// serves), 503 "unreachable" once nothing answers.
func TestHealthReportsPerTier(t *testing.T) {
	cluster, reps, srv := degradeFixture(t)
	h := srv.Mux()

	reps.Close()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "degraded\n") {
		t.Fatalf("replica-down healthz = %d %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "write primaries: ok") {
		t.Fatalf("healthz lost the healthy tier: %q", rec.Body.String())
	}

	cluster.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(rec.Body.String(), "unreachable\n") {
		t.Fatalf("all-down healthz = %d %q", rec.Code, rec.Body.String())
	}
}

// TestInflightShedding: past MaxInflight concurrent requests the
// server sheds with 503 + Retry-After instead of queueing, and books
// the shed in /v1/stats.
func TestInflightShedding(t *testing.T) {
	_, _, srv := degradeFixture(t)
	srv.maxInflight = 1

	entered := make(chan struct{})
	release := make(chan struct{})
	slow := srv.limit(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		slow(rec, httptest.NewRequest("GET", "/v1/neighbors/7", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("occupying request = %d", rec.Code)
		}
	}()
	<-entered

	rec := httptest.NewRecorder()
	slow(rec, httptest.NewRequest("GET", "/v1/neighbors/7", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request = %d %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After")
	}
	close(release)
	wg.Wait()

	if got := srv.Stats().Shed; got != 1 {
		t.Fatalf("stats shed = %d, want 1", got)
	}
	// The slot freed: the next request is served, not shed.
	rec = httptest.NewRecorder()
	ok := srv.limit(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	ok(rec, httptest.NewRequest("GET", "/v1/neighbors/7", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release request = %d", rec.Code)
	}
}

// TestSeededReplicaFaultsAbsorbed: with every replica listener wrapped
// in a seeded drop+delay plan, Zipfian HTTP reads keep flowing through
// the client retry ladder and the primary fallback while the engine
// iterates on the same store. Bounded, not zero: past 5% of the ops
// the chaos is no longer being absorbed.
func TestSeededReplicaFaultsAbsorbed(t *testing.T) {
	const users, partitions = 600, 8
	vecs, _, err := dataset.RatingsProfiles(users, 4*users, 25, 8, 1234)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(profile.NewStoreFromVectors(vecs), core.Options{
		K: 10, NumPartitions: partitions, NetStoreShards: 2, PublishViews: true,
		OnDisk: true, EmulateDisk: &disk.HDD, ScratchDir: t.TempDir(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The first iteration publishes the serve views the reads hit.
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	fp, err := fault.NewPlan(fault.PlanConfig{Seed: 7, DropRate: 0.02, DelayRate: 0.1, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := netstore.StartReplicasOpts(
		[]string{"127.0.0.1:0", "127.0.0.1:0"}, eng.StoreAddrs(), partitions, nil,
		netstore.ReplicaSetOptions{
			WrapListener: func(_ int, ln net.Listener) net.Listener { return fp.Listener(ln) },
		})
	if err != nil {
		t.Fatal(err)
	}
	defer reps.Close()
	srv, err := New(Config{Primaries: eng.StoreAddrs(), Replicas: reps.Addrs(), Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Mux())
	defer hs.Close()
	target := load.NewHTTPTarget("faults", hs.URL, 0)
	defer target.Close()
	plan, err := load.BuildPlan(load.PlanConfig{
		Users: users, Items: 500, Ops: 600, Rate: 1500, Skew: 1.1, ProfileFrac: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	loadDone, stop := context.WithCancel(context.Background())
	engDone := make(chan error, 1)
	go func() {
		var err error
		for err == nil && loadDone.Err() == nil {
			_, err = eng.Iterate(context.Background())
		}
		engDone <- err
	}()
	res, err := load.Run(context.Background(), target, plan, load.RunConfig{Concurrency: 8})
	stop()
	if engErr := <-engDone; engErr != nil {
		t.Fatal(engErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n, ops := res.Errors(), res.Ops(); n > ops/20 {
		t.Fatalf("%d errors over %d ops under the seeded fault plan (first: %s)",
			n, ops, res.Kinds[0].FirstError)
	}
}
