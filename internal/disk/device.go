package disk

import (
	"sync"
	"time"
)

// Device enforces a cost model's latency as wall time, emulating one
// physical storage device shared by every I/O stream of the engine.
// Concurrent accessors — the phase-4 cursor's loads, the background
// write-back goroutines, and shard prefetch readers — queue for the
// device rather than sleeping in parallel: the modeled hardware is a
// single spindle/controller, so giving it unlimited internal
// parallelism would overstate every pipelining win. Only the modeled
// sleep is serialized; the host's real file I/O still overlaps freely.
//
// time.Sleep overshoots sub-millisecond requests badly (timer
// granularity), which would inflate fast models like NVMe several-fold;
// instead each access adds its modeled duration to a debt and the
// device sleeps only when ≥ 1ms is owed, crediting back the actually
// elapsed time, so aggregate device time stays exact.
//
// A nil *Device is valid everywhere and adds no latency, so callers
// plumb one pointer without nil checks.
type Device struct {
	model Model
	name  string

	mu      sync.Mutex
	debt    time.Duration
	modeled time.Duration // total duration ever charged
	slept   time.Duration // total wall time actually slept

	// The fault hook lives under its own lock so installing or
	// consulting it never queues behind the spindle mutex (whose
	// critical section includes the modeled sleep). See fault.go.
	hookMu sync.Mutex
	hook   FaultHook
}

// NewNamedDevice returns an emulated device labeled for per-spindle
// accounting — e.g. one device per state-store shard, so IOStats can
// report where modeled device time was spent (see IOStats.RegisterDevice).
func NewNamedDevice(m Model, name string) *Device {
	return &Device{model: m, name: name}
}

// Name reports the device's accounting label ("" for an unnamed or nil
// device).
func (d *Device) Name() string {
	if d == nil {
		return ""
	}
	return d.name
}

// Model reports the device's cost model (the zero Model for a nil
// device).
func (d *Device) Model() Model {
	if d == nil {
		return Model{}
	}
	return d.model
}

// Read queues for the device and holds it for the modeled time of one
// random read of n bytes.
func (d *Device) Read(n int64) {
	if d == nil {
		return
	}
	d.access(d.model.ReadTime(n))
}

// Write queues for the device and holds it for the modeled time of one
// random write of n bytes.
func (d *Device) Write(n int64) {
	if d == nil {
		return
	}
	d.access(d.model.WriteTime(n))
}

// Append queues for the device and holds it for the modeled time of
// one sequential journal append of n bytes (transfer only — the head
// is already at the log tail).
func (d *Device) Append(n int64) {
	if d == nil {
		return
	}
	d.access(d.model.AppendTime(n))
}

// access serializes the modeled duration of one access (amortized
// across accesses to dodge timer granularity — see the type comment).
// Both the debt bookkeeping and the sleep run under the mutex: the
// sleep IS the device being busy, so concurrent accessors queue behind
// it, and because the elapsed time is measured and credited inside the
// same critical section, no two accessors can ever observe (and
// credit) the same elapsed wall time twice. The invariant, preserved
// verbatim under any number of concurrent accessors, is
//
//	modeled == slept + debt
//
// which is what keeps aggregate modeled device time exact (±1ms of
// never-yet-slept debt) — see Accounting and the concurrency test.
func (d *Device) access(t time.Duration) {
	d.mu.Lock()
	d.modeled += t
	d.debt += t
	if d.debt >= time.Millisecond {
		start := time.Now()
		//knnlint:ignore locksleep the spindle mutex IS the queue: sleeping under it is how one emulated disk arm serializes concurrent accessors (see the access doc comment)
		time.Sleep(d.debt)
		elapsed := time.Since(start)
		d.slept += elapsed
		d.debt -= elapsed
	}
	d.mu.Unlock()
}

// Accounting reports the device's cumulative bookkeeping: the total
// modeled duration ever charged, the wall time actually slept, and the
// outstanding debt (negative when a sleep overshot; the overshoot is
// credited against future accesses so the aggregate stays exact). For
// any consistent snapshot, modeled == slept + debt. A nil device
// reports zeros.
func (d *Device) Accounting() (modeled, slept, debt time.Duration) {
	if d == nil {
		return 0, 0, 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.modeled, d.slept, d.debt
}
