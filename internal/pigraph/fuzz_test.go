package pigraph

import "testing"

// FuzzPlan turns bytes into a bounded PI graph — data[0] picks m ≤ 64,
// data[1] and data[2] the budget Max-Reuse plans for, every later byte
// pair an edge (or a self-shard when both ends agree) — and requires
// every heuristic's schedule to validate and to simulate at S ∈ 2..5 ×
// W ∈ 1..3 with Loads == Unloads, no more loads than LRU eviction
// spends on the same segments, and per-partition LoadCounts summing to
// the simulated Loads.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{8, 4, 2, 0, 1, 1, 2, 2, 3, 3, 0, 0, 0, 4, 5})
	f.Add([]byte{3, 2, 1, 1, 1})
	f.Add([]byte{64, 7, 3, 0, 63, 5, 9, 9, 5, 12, 40, 40, 12, 33, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m := 1 + int(data[0])%64
		g := New(m)
		edges := data[3:]
		if len(edges) > 512 {
			edges = edges[:512]
		}
		for i := 0; i+1 < len(edges); i += 2 {
			if err := g.AddShard(uint32(int(edges[i])%m), uint32(int(edges[i+1])%m), 1); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range heuristicsFor(int(data[1])%8, int(data[2])%4) {
			s := h.Plan(g)
			if err := s.Validate(g); err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			for slots := 2; slots <= 5; slots++ {
				for workers := 1; workers <= 3; workers++ {
					r, err := s.Simulate(ExecOptions{Slots: slots, Workers: workers})
					if err != nil {
						t.Fatalf("%s S=%d W=%d: %v", h.Name(), slots, workers, err)
					}
					var lru Result
					for _, seg := range s.Split(workers) {
						lru.Add(lruExecute(seg, slots))
					}
					if r.Loads != r.Unloads || r.Loads > lru.Loads {
						t.Fatalf("%s S=%d W=%d: %d loads, %d unloads, LRU %d loads",
							h.Name(), slots, workers, r.Loads, r.Unloads, lru.Loads)
					}
					counts, err := s.LoadCounts(ExecOptions{Slots: slots, Workers: workers})
					if err != nil {
						t.Fatalf("%s S=%d W=%d: %v", h.Name(), slots, workers, err)
					}
					var sum int64
					for _, c := range counts {
						sum += int64(c)
					}
					if sum != r.Loads {
						t.Fatalf("%s S=%d W=%d: load counts %v sum to %d, simulated %d loads",
							h.Name(), slots, workers, counts, sum, r.Loads)
					}
				}
			}
		}
	})
}
