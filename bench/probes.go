package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/disk"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/netstore"
	"knnpc/internal/partition"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
	"knnpc/internal/serve"
	"knnpc/internal/tuples"
)

// The layer probes run in the traced pass only, after the workload, on
// inputs taken from its final state: the committed graph, the final
// profiles, and the partitioning, tuple shards, PI graph and op tape
// that the next iteration would build from them. Each probe calls a
// layer's public functions directly, inside a span of that layer.

// reps is how often a timing probe repeats; the median is reported.
const reps = 5

// medianOf times f reps times inside spans and returns the median.
func medianOf(tr *tracer, name, layer string, f func()) time.Duration {
	samples := make([]float64, reps)
	for i := range samples {
		samples[i] = float64(tr.timed(name, layer, 0, f))
	}
	return time.Duration(median(samples))
}

// probeIterationLayers measures profile, partition, tuples, knn and
// pigraph on the engine's final graph.
func probeIterationLayers(rc runConfig, res *runResult, st iterState) error {
	tr := rc.trace
	g := st.eng.Graph()
	opts := st.opts
	m := opts.NumPartitions

	probeProfile(tr, res, g, st.store)

	// partition: the phase-1 work of the next iteration.
	dg := g.Digraph()
	var assign *partition.Assignment
	var perr error
	d := medianOf(tr, "Greedy.Partition", "partition", func() {
		assign, perr = partition.Greedy{}.Partition(dg, m)
	})
	if perr != nil {
		return perr
	}
	res.Layer["partition.assign_ms"] = ms(d)
	var parts []*partition.Data
	d = medianOf(tr, "partition.Build", "partition", func() { parts = partition.Build(dg, assign) })
	res.Layer["partition.build_ms"] = ms(d)

	// tuples: every bridge tuple and direct edge of the graph, added in
	// the engine's batch size, then every shard read back once.
	var all []tuples.Tuple
	for _, p := range parts {
		if err := tuples.GenerateBridge(p, func(s, d uint32) error {
			all = append(all, tuples.Tuple{S: s, D: d})
			return nil
		}); err != nil {
			return err
		}
	}
	for _, e := range dg.Edges() {
		all = append(all, tuples.Tuple{S: e.Src, D: e.Dst})
	}
	counts, biggest, err := probeTuples(rc, res, assign, all, opts.TupleBatch)
	if err != nil {
		return err
	}

	probeKNN(tr, res, biggest, st.store, opts.Workers)

	// pigraph: plan the traversal of the real PI graph, then run the
	// workload's executor configuration over its tape with callbacks that
	// do nothing, so what is timed is the executor itself.
	pi, err := pigraph.FromTupleCounts(m, counts)
	if err != nil {
		return err
	}
	var schedule *pigraph.Schedule
	d = medianOf(tr, "Heuristic.Plan", "pigraph", func() { schedule = pigraph.DegreeLowHigh().Plan(pi) })
	res.Layer["pigraph.plan_ms"] = ms(d)
	execOpts := pigraph.ExecOptions{
		Slots: opts.Slots, PrefetchDepth: opts.PrefetchDepth,
		ShardAhead: opts.ShardPrefetch, Workers: opts.ExecWorkers,
	}
	if opts.AsyncWriteback {
		execOpts.WritebackDepth = max(1, opts.PrefetchDepth)
	}
	var result pigraph.Result
	var execErr error
	d = medianOf(tr, "Schedule.ExecuteParallel", "pigraph", func() {
		result, _, execErr = schedule.ExecuteParallel(func(int) pigraph.Callbacks { return noopCallbacks }, execOpts)
	})
	if execErr != nil {
		return execErr
	}
	if result.Ops() == 0 {
		return fmt.Errorf("pigraph probe executed no load/unload op")
	}
	res.Layer["pigraph.exec_overhead_us_per_op"] = us(d) / float64(result.Ops())
	return nil
}

// probeTuples fills a fresh on-disk table with all in the engine's batch
// size and reads every shard back once, reps times over. It returns the
// raw shard counts and the largest partition-pair shard (de-duplicated),
// which the scorer probe uses.
func probeTuples(rc runConfig, res *runResult, assign *partition.Assignment, all []tuples.Tuple, spillBatch int) (map[tuples.ShardID]int64, []tuples.Tuple, error) {
	const batch = 4096 // core's emitBatch
	var (
		counts       map[tuples.ShardID]int64
		biggest      []tuples.Tuple
		addNS, getNS []float64
		unique       int
		spilled      int64
	)
	for r := 0; r < reps; r++ {
		dir := filepath.Join(rc.scratch, fmt.Sprintf("probe-tuples%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		scratch, err := disk.NewScratch(dir)
		if err != nil {
			return nil, nil, err
		}
		var io disk.IOStats
		table := tuples.NewDiskTable(assign, scratch, &io, spillBatch)
		d := rc.trace.timed("DiskTable.AddBatch", "tuples", 0, func() {
			for lo := 0; lo < len(all) && err == nil; lo += batch {
				err = table.AddBatch(all[lo:min(lo+batch, len(all))])
			}
		})
		if err != nil {
			table.Close()
			return nil, nil, err
		}
		addNS = append(addNS, float64(d)/float64(len(all)))
		counts = table.ShardCounts()
		ids := make([]tuples.ShardID, 0, len(counts))
		for id := range counts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool {
			return ids[a].I < ids[b].I || (ids[a].I == ids[b].I && ids[a].J < ids[b].J)
		})
		unique, biggest = 0, nil
		d = rc.trace.timed("DiskTable.Shard", "tuples", 0, func() {
			for _, id := range ids {
				var ts []tuples.Tuple
				if ts, err = table.Shard(id.I, id.J); err != nil {
					return
				}
				unique += len(ts)
				if id.I != id.J && len(ts) > len(biggest) {
					biggest = ts
				}
			}
		})
		spilled = io.Snapshot().BytesWritten
		table.Close()
		if err != nil {
			return nil, nil, err
		}
		getNS = append(getNS, float64(d)/float64(max(unique, 1)))
	}
	res.Layer["tuples.add_ns_per_tuple"] = median(addNS)
	res.Layer["tuples.shard_read_ns_per_tuple"] = median(getNS)
	res.Layer["tuples.dedup_ratio"] = float64(unique) / float64(len(all))
	res.Layer["tuples.spill_bytes"] = float64(spilled)
	return counts, biggest, nil
}

// noopCallbacks exercises every executor path (synchronous, prefetched
// and written back) without doing any work in it.
var noopCallbacks = pigraph.Callbacks{
	Load:      func(uint32) error { return nil },
	Unload:    func(uint32) error { return nil },
	Pair:      func(uint32, uint32) error { return nil },
	Self:      func(uint32) error { return nil },
	Fetch:     func(uint32) (any, error) { return nil, nil },
	Commit:    func(uint32, any) error { return nil },
	Discard:   func(uint32, any) {},
	Evict:     func(uint32) (any, error) { return nil, nil },
	Flush:     func(uint32, any) error { return nil },
	PairAhead: func(uint32, uint32) {},
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// probeProfile times the similarity kernels on the graph's own edges
// (pairs the engine really scores) and the vector decoder on the final
// profiles.
func probeProfile(tr *tracer, res *runResult, g *graph.KNN, store *profile.Store) {
	edges := g.Edges()
	if len(edges) > 50000 {
		edges = edges[:50000]
	}
	for _, sim := range []profile.Similarity{profile.Cosine{}, profile.Jaccard{}} {
		d := medianOf(tr, sim.Name()+".Score", "profile", func() {
			for _, e := range edges {
				sink += sim.Score(store.Get(e.Src), store.Get(e.Dst))
			}
		})
		res.Layer["profile."+sim.Name()+"_ns_per_pair"] = float64(d) / float64(len(edges))
	}
	n := min(store.NumUsers(), 4000)
	blobs := make([][]byte, n)
	for u := range blobs {
		blobs[u] = store.Get(uint32(u)).AppendBinary(nil)
	}
	d := medianOf(tr, "DecodeVector", "profile", func() {
		for _, b := range blobs {
			v, _, _ := profile.DecodeVector(b)
			sink += float64(v.Len())
		}
	})
	res.Layer["profile.decode_ns_per_vector"] = float64(d) / float64(n)
}

// probeKNN times the batch scorer on one real partition-pair shard and
// the top-K accumulator on the scores it produced.
func probeKNN(tr *tracer, res *runResult, shard []tuples.Tuple, store *profile.Store, workers int) {
	if len(shard) == 0 {
		return
	}
	scorer := knn.Scorer{Sim: profile.Cosine{}, Workers: workers}
	lookup := func(u uint32) (profile.Vector, error) { return store.Get(u), nil }
	var scores []float64
	d := medianOf(tr, "Scorer.Score", "knn", func() { scores, _ = scorer.Score(shard, lookup) })
	res.Layer["knn.score_ns_per_tuple"] = float64(d) / float64(len(shard))
	_, before := memCounters()
	for range reps {
		scores, _ = scorer.Score(shard, lookup)
	}
	_, after := memCounters()
	res.Layer["knn.score_allocs_per_batch"] = float64(after-before) / reps

	d = medianOf(tr, "TopK.Push", "knn", func() {
		var acc *knn.TopK
		for i, t := range shard {
			if i == 0 || t.S != shard[i-1].S {
				acc, _ = knn.NewTopK(k)
			}
			acc.Push(t.D, scores[i])
		}
		sink += float64(acc.Len())
	})
	res.Layer["knn.topk_push_ns"] = float64(d) / float64(len(shard))

	// Merge: fold full accumulators pairwise, as COLLECT does with the
	// partials of two tape workers.
	var full []*knn.TopK
	for lo := 0; lo+k <= len(shard) && len(full) < 2000; lo += k {
		acc, _ := knn.NewTopK(k)
		for i := lo; i < lo+k; i++ {
			acc.Push(uint32(i), scores[i])
		}
		full = append(full, acc)
	}
	if len(full) >= 2 {
		d = medianOf(tr, "TopK.Merge", "knn", func() {
			for i := 0; i+1 < len(full); i += 2 {
				dst, _ := knn.NewTopK(k)
				dst.Merge(full[i])
				dst.Merge(full[i+1])
				sink += float64(dst.Len())
			}
		})
		res.Layer["knn.topk_merge_ns"] = float64(d) / float64(len(full)/2)
	}
}

// medianEach times f once per element of n inside spans and returns the
// median duration.
func medianEach(tr *tracer, name, layer string, n int, f func(i int) error) (time.Duration, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var err error
		d := tr.timed(name, layer, 0, func() { err = f(i) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		samples = append(samples, float64(d))
	}
	return time.Duration(median(samples)), nil
}

// probeServing measures the store and the HTTP handler at rest: loopback
// round-trips against an un-emulated 2-shard cluster loaded with
// state-sized blobs and the real serve views of the workload's final
// graph, an un-emulated replica set over it, and the serve handlers
// called without TCP. Beside serve-mixed's numbers under load, these
// are what each verb costs when nothing contends for it.
func probeServing(rc runConfig, res *runResult, st *serveStack) error {
	tr := rc.trace
	m := st.opts.NumPartitions
	g := st.eng.Graph()
	assign, err := partition.Greedy{}.Partition(g.Digraph(), m)
	if err != nil {
		return err
	}
	cluster, err := netstore.StartCluster(2, m, nil)
	if err != nil {
		return err
	}
	defer cluster.Close()
	client, err := netstore.Dial(cluster.Addrs(), m)
	if err != nil {
		return err
	}
	defer client.Close()

	// Per partition: a base blob the size of its state (the members'
	// encoded profiles plus an empty K-slot accumulator each), a partial
	// the size of its accumulators, and its real serve view.
	bases, partials, views := make([][]byte, m), make([][]byte, m), make([][]byte, m)
	var users []uint32 // one member per partition first, then the rest
	for p := 0; p < m; p++ {
		members := assign.Members(uint32(p))
		entries := make([]netstore.ViewEntry, 0, len(members))
		for _, u := range members {
			blob := st.store.Get(u).AppendBinary(nil)
			bases[p] = append(bases[p], blob...)
			entries = append(entries, netstore.ViewEntry{User: u, Neighbors: g.Neighbors(u), Profile: blob})
		}
		partials[p] = make([]byte, len(members)*(8+12*k))
		bases[p] = append(bases[p], partials[p]...)
		views[p] = netstore.EncodeView(entries)
		if len(members) > 0 {
			users = append(users, members[0])
		}
	}
	for p := 0; p < m; p++ {
		users = append(users, assign.Members(uint32(p))...)
	}
	users = users[:min(len(users), 400)]

	l := res.Layer
	d, err := medianEach(tr, "Client.PutBase", "netstore", m, func(p int) error { return client.PutBase(uint32(p), bases[p]) })
	if err != nil {
		return err
	}
	l["netstore.put_base_us"] = us(d)
	d, err = medianEach(tr, "Client.Get", "netstore", m, func(p int) error { _, err := client.Get(uint32(p)); return err })
	if err != nil {
		return err
	}
	l["netstore.get_us"] = us(d)
	tokens := make([]uint64, m)
	d, err = medianEach(tr, "Client.Lease", "netstore", m, func(p int) (err error) {
		tokens[p], err = client.Lease(uint32(p))
		return err
	})
	if err != nil {
		return err
	}
	l["netstore.lease_us"] = us(d)
	d, err = medianEach(tr, "Client.PutPartial", "netstore", m, func(p int) error {
		return client.PutPartial(uint32(p), tokens[p], partials[p])
	})
	if err != nil {
		return err
	}
	l["netstore.put_partial_us"] = us(d)
	d, err = medianEach(tr, "Client.Collect", "netstore", 3, func(int) error {
		return client.Collect(func(netstore.CollectItem) error { return nil })
	})
	if err != nil {
		return err
	}
	l["netstore.collect_ms"] = ms(d)
	for p := 0; p < m; p++ {
		if err := client.PutView(uint32(p), views[p]); err != nil {
			return err
		}
	}
	d, err = medianEach(tr, "Client.Epoch", "netstore", 200, func(i int) error {
		_, _, err := client.Epoch(uint32(i % m))
		return err
	})
	if err != nil {
		return err
	}
	l["netstore.epoch_us"] = us(d)
	d, err = medianEach(tr, "Client.Neighbors", "netstore", len(users), func(i int) error {
		_, _, err := client.Neighbors(users[i])
		return err
	})
	if err != nil {
		return err
	}
	l["netstore.neighbors_us"] = us(d)
	d, err = medianEach(tr, "Client.ProfileBytes", "netstore", len(users), func(i int) error {
		_, _, err := client.ProfileBytes(users[i])
		return err
	})
	if err != nil {
		return err
	}
	l["netstore.profile_us"] = us(d)
	d, err = medianEach(tr, "Client.PushUpdates", "netstore", 200, func(i int) error {
		return client.PushUpdates([]profile.Update{{User: users[i%len(users)], Kind: profile.SetItem, Item: uint32(i), Weight: 1}})
	})
	if err != nil {
		return err
	}
	l["netstore.push_updates_us"] = us(d)

	// Replicas: a delta republish moves one partition's view epoch, so
	// the next lookup of one of its members re-pulls exactly that view;
	// the lookups after it are answered from the cache.
	replicas, err := netstore.StartReplicas(cluster.Addrs(), m, nil)
	if err != nil {
		return err
	}
	defer replicas.Close()
	rclient, err := netstore.Dial(replicas.Addrs(), m)
	if err != nil {
		return err
	}
	defer rclient.Close()
	for _, u := range users { // first touch: every replica pulls its range
		if _, _, err := rclient.Neighbors(u); err != nil {
			return err
		}
	}
	d, err = medianEach(tr, "Replica pull", "netstore", m, func(p int) error {
		if err := client.PutDeltaView(uint32(p), views[p]); err != nil {
			return err
		}
		_, _, err := rclient.Neighbors(users[p])
		return err
	})
	if err != nil {
		return err
	}
	l["netstore.replica_pull_ms"] = ms(d)
	d, err = medianEach(tr, "Replica hit", "netstore", len(users), func(i int) error {
		_, _, err := rclient.Neighbors(users[i])
		return err
	})
	if err != nil {
		return err
	}
	l["netstore.replica_hit_us"] = us(d)

	// serve: the handlers over the same replicas and primaries, called
	// through the mux with no TCP between the caller and the handler.
	srv, err := serve.New(serve.Config{Primaries: cluster.Addrs(), Replicas: replicas.Addrs(), Partitions: m})
	if err != nil {
		return err
	}
	defer srv.Close()
	mux := srv.Mux()
	call := func(method, url string, body []byte, want int) error {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code != want {
			return fmt.Errorf("%s %s: HTTP %d", method, url, rec.Code)
		}
		return nil
	}
	d, err = medianEach(tr, "GET /v1/neighbors", "serve", len(users), func(i int) error {
		return call(http.MethodGet, fmt.Sprintf("%s%d", api.PathNeighbors, users[i]), nil, http.StatusOK)
	})
	if err != nil {
		return err
	}
	l["serve.neighbors_us"] = us(d)
	d, err = medianEach(tr, "GET /v1/profile", "serve", len(users), func(i int) error {
		return call(http.MethodGet, fmt.Sprintf("%s/%d", api.PathProfile, users[i]), nil, http.StatusOK)
	})
	if err != nil {
		return err
	}
	l["serve.profile_us"] = us(d)
	d, err = medianEach(tr, "POST /v1/profile", "serve", 200, func(i int) error {
		body, err := json.Marshal(api.UpdateRequest{Updates: []api.ProfileUpdate{
			{User: users[i%len(users)], Op: api.OpSet, Item: uint32(i), Weight: 1},
		}})
		if err != nil {
			return err
		}
		return call(http.MethodPost, api.PathProfile, body, http.StatusAccepted)
	})
	if err != nil {
		return err
	}
	l["serve.update_us"] = us(d)
	return nil
}
