package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Run is 0: the
// traced pass is a single run in a process of its own. Parent is the id
// of the span that caused this one (0 for a root).
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: end-to-end metrics are measured that way. Spans are recorded
// around the harness's calls, after the call's own clock readings, so
// tracing costs the traced pass exactly the time spent in add — which
// the tracer measures (busy) rather than inferring it from two noisy
// sets of iteration times.
type tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span
	busy  time.Duration // time spent recording spans
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// add records a finished span and returns its id (0 when not tracing).
func (t *tracer) add(name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	entered := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Workload: t.workload,
		ID: id, Parent: parent,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	t.busy += time.Since(entered)
	return id
}

// overheadFrac is the share of window the tracer spent recording.
func (t *tracer) overheadFrac(window time.Duration) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.busy) / float64(window)
}

// timed runs f inside a span.
func (t *tracer) timed(name, layer string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, layer, parent, start, end)
	return end.Sub(start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its child spans cover (children may overlap each other
// and are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, cursor := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, cursor), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// selfByLayer sums self time per layer, in nanoseconds.
func selfByLayer(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format (chrome://tracing, ui.perfetto.dev): microsecond timestamps,
// one track (tid) per layer.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	tids := make(map[string]int)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Layer},
			})
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{
				"workload": s.Workload, "run": s.Run, "id": s.ID, "parent": s.Parent,
				"start_ns": s.StartNS, "end_ns": s.EndNS, "self_ns": self[s.ID],
			},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
