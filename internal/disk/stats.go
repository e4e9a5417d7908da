// Package disk is the storage substrate of the out-of-core engine. It
// provides counted file I/O (every byte and random access is recorded in
// IOStats), analytic disk cost models that translate those counts into
// estimated device time for HDD/SSD/NVMe hardware, a memory budget
// accountant, length-prefixed record files used for hash-table spills,
// and scratch-directory management.
//
// The paper's stated goal is "to minimize random accesses to disk as
// well as the amount of data loaded/unloaded from/to disk"; IOStats is
// how the reproduction observes exactly those two quantities.
package disk

import (
	"sync"
	"sync/atomic"
	"time"
)

// IOStats accumulates I/O counters. All methods are safe for concurrent
// use. The zero value is ready to use.
type IOStats struct {
	loads        atomic.Int64
	unloads      atomic.Int64
	seeks        atomic.Int64
	readOps      atomic.Int64
	writeOps     atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	creates      atomic.Int64

	// devMu guards the registered emulated devices. Registration is
	// rare (engine construction); snapshots read each device's own
	// internally-synchronized accounting. devBase holds each device's
	// accounting as of the last Reset — a Device's own books are
	// cumulative for its whole life (other holders may read them), so
	// Reset re-baselines here instead of zeroing the device.
	devMu   sync.Mutex
	devices []*Device
	devBase []DeviceAccounting
}

// DeviceAccounting is one emulated device's time bookkeeping at a point
// in time: per-spindle, so a sharded state store reports where modeled
// device time queued instead of one global number. The invariant
// Modeled == Slept + Debt holds per device (see Device.Accounting).
type DeviceAccounting struct {
	// Name labels the spindle ("spindle" for the engine's shared local
	// device, "shard0", "shard1", ... for state-store shards).
	Name string
	// Modeled is the total device time ever charged by the cost model.
	Modeled time.Duration
	// Slept is the wall time actually serialized on the device.
	Slept time.Duration
	// Debt is the modeled time not yet slept (negative after an
	// overshoot; |Debt| stays under the 1ms sleep granularity).
	Debt time.Duration
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	// Loads and Unloads count partition-state reads off and writes onto
	// the storage medium. They are not the executor's tape ops, which
	// Table 1 reports: a tape load that attaches to an instance another
	// worker holds reads nothing, and a partition's final release emits
	// its rows instead of writing.
	Loads   int64
	Unloads int64
	// Seeks counts random accesses (file opens and repositionings).
	Seeks int64
	// ReadOps/WriteOps count I/O system-call-level operations.
	ReadOps  int64
	WriteOps int64
	// BytesRead/BytesWritten count payload volume.
	BytesRead    int64
	BytesWritten int64
	// Creates counts files created, as opposed to reopened: scratch
	// files are rewritten in place, so after an engine's first
	// iteration it only moves when a file is needed for the first time.
	Creates int64
	// Devices reports per-spindle emulated-device time for every device
	// registered with RegisterDevice, in registration order — one entry
	// per state-store shard (plus the engine's local spindle), so
	// shard-count sweeps can show modeled queueing moving off one
	// device. Empty when no device is registered (no emulation).
	Devices []DeviceAccounting
}

// AddLoad records a partition-state read off the medium.
func (s *IOStats) AddLoad() { s.loads.Add(1) }

// AddUnload records a partition-state write onto the medium.
func (s *IOStats) AddUnload() { s.unloads.Add(1) }

// AddSeek records a random access.
func (s *IOStats) AddSeek() { s.seeks.Add(1) }

// AddRead records one read operation of n bytes.
func (s *IOStats) AddRead(n int64) {
	s.readOps.Add(1)
	s.bytesRead.Add(n)
}

// AddWrite records one write operation of n bytes.
func (s *IOStats) AddWrite(n int64) {
	s.writeOps.Add(1)
	s.bytesWritten.Add(n)
}

// AddCreate records a file created.
func (s *IOStats) AddCreate() { s.creates.Add(1) }

// RegisterDevice adds an emulated device to the stats' per-spindle
// accounting: every Snapshot thereafter carries the device's
// modeled/slept/debt times under its name. Nil devices are ignored.
func (s *IOStats) RegisterDevice(d *Device) {
	if d == nil {
		return
	}
	s.devMu.Lock()
	s.devices = append(s.devices, d)
	s.devBase = append(s.devBase, DeviceAccounting{Name: d.Name()})
	s.devMu.Unlock()
}

// Snapshot returns a copy of the current counters.
func (s *IOStats) Snapshot() Snapshot {
	snap := Snapshot{
		Loads:        s.loads.Load(),
		Unloads:      s.unloads.Load(),
		Seeks:        s.seeks.Load(),
		ReadOps:      s.readOps.Load(),
		WriteOps:     s.writeOps.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Creates:      s.creates.Load(),
	}
	s.devMu.Lock()
	devices := append([]*Device(nil), s.devices...)
	base := append([]DeviceAccounting(nil), s.devBase...)
	s.devMu.Unlock()
	for i, d := range devices {
		modeled, slept, debt := d.Accounting()
		snap.Devices = append(snap.Devices, DeviceAccounting{
			Name:    d.Name(),
			Modeled: modeled - base[i].Modeled,
			Slept:   slept - base[i].Slept,
			Debt:    debt - base[i].Debt,
		})
	}
	return snap
}

// Reset zeroes all counters, including the per-device times: each
// registered device's current accounting becomes the new baseline
// later Snapshots subtract (the device's own cumulative books are
// shared with other holders and stay untouched).
func (s *IOStats) Reset() {
	s.loads.Store(0)
	s.unloads.Store(0)
	s.seeks.Store(0)
	s.readOps.Store(0)
	s.writeOps.Store(0)
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
	s.creates.Store(0)
	s.devMu.Lock()
	for i, d := range s.devices {
		modeled, slept, debt := d.Accounting()
		s.devBase[i] = DeviceAccounting{Name: d.Name(), Modeled: modeled, Slept: slept, Debt: debt}
	}
	s.devMu.Unlock()
}

// LoadUnloadOps reports Loads + Unloads — the single number the paper's
// Table 1 tabulates per heuristic.
func (s Snapshot) LoadUnloadOps() int64 { return s.Loads + s.Unloads }

// Sub returns the counter-wise difference s - o, for measuring a phase.
// Device times subtract by name (a device registered after o was taken
// keeps its full accounting); the Modeled == Slept + Debt invariant is
// preserved entry-wise because it holds in both operands.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	oldDev := make(map[string]DeviceAccounting, len(o.Devices))
	for _, d := range o.Devices {
		oldDev[d.Name] = d
	}
	var devices []DeviceAccounting
	for _, d := range s.Devices {
		if prev, ok := oldDev[d.Name]; ok {
			d.Modeled -= prev.Modeled
			d.Slept -= prev.Slept
			d.Debt -= prev.Debt
		}
		devices = append(devices, d)
	}
	return Snapshot{
		Loads:        s.Loads - o.Loads,
		Unloads:      s.Unloads - o.Unloads,
		Seeks:        s.Seeks - o.Seeks,
		ReadOps:      s.ReadOps - o.ReadOps,
		WriteOps:     s.WriteOps - o.WriteOps,
		BytesRead:    s.BytesRead - o.BytesRead,
		BytesWritten: s.BytesWritten - o.BytesWritten,
		Creates:      s.Creates - o.Creates,
		Devices:      devices,
	}
}
