package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50},  // overlaps span 2
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past the parent
		{ID: 5, Parent: 3, StartNS: 25, EndNS: 35},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the parent: 50 of 100.
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var none *tracer
	now := time.Now()
	if id := none.add("x", "core", 0, now, now); id != 0 || none.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	if d := none.timed("x", "core", 0, func() {}); d < 0 {
		t.Fatal("timed must still time the call without a tracer")
	}

	tr := newTracer("w")
	parent := tr.add("parent", "core", 0, now, now.Add(time.Millisecond))
	child := tr.add("child", "knn", parent, now, now.Add(time.Microsecond))
	if frac := tr.overheadFrac(time.Second); frac < 0 || frac > 0.01 {
		t.Errorf("recording two spans took %g of a second", frac)
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].ID != child || spans[1].Parent != parent || spans[1].Workload != "w" {
		t.Fatalf("spans = %+v", spans)
	}
	if got := selfByLayer(spans)["core"]; got != int64(time.Millisecond-time.Microsecond) {
		t.Errorf("core self time = %d", got)
	}
}

func TestChromeTraceIsValidJSONWithSpanFields(t *testing.T) {
	tr := newTracer("w")
	now := time.Now()
	id := tr.add("Engine.Iterate", "core", 0, now, now.Add(time.Second))
	tr.add("p1 partition", "partition", id, now, now.Add(time.Millisecond))
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		complete++
		for _, key := range []string{"workload", "run", "id", "parent", "start_ns", "end_ns", "self_ns"} {
			if _, ok := e.Args[key]; !ok {
				t.Errorf("event %q lacks %q", e.Name, key)
			}
		}
	}
	if complete != 2 {
		t.Errorf("%d complete events, want 2", complete)
	}
}
