package disk

import (
	"fmt"
	"time"
)

// Model is an analytic disk cost model: it converts measured IOStats
// into an estimated device-time figure. The paper's future work proposes
// evaluating the system on HDD and SSD; because benchmark hosts differ,
// the reproduction measures real byte/seek counts and projects them
// through these models, which preserves the HDD-vs-SSD relationship
// independent of the host's actual storage.
type Model struct {
	// Name identifies the model in experiment output.
	Name string
	// SeekLatency is the cost of one random access.
	SeekLatency time.Duration
	// ReadBandwidth is the sequential read rate in bytes/second.
	ReadBandwidth int64
	// WriteBandwidth is the sequential write rate in bytes/second.
	WriteBandwidth int64
}

// Preset models. Figures are nominal mid-2010s commodity-PC values (the
// paper's hardware class): a 7200 RPM SATA disk, a SATA SSD, and a
// modern NVMe drive as an extension point.
var (
	// HDD models a 7200 RPM spinning disk.
	HDD = Model{
		Name:           "hdd",
		SeekLatency:    9 * time.Millisecond,
		ReadBandwidth:  120 << 20,
		WriteBandwidth: 110 << 20,
	}
	// SSD models a SATA solid-state drive.
	SSD = Model{
		Name:           "ssd",
		SeekLatency:    90 * time.Microsecond,
		ReadBandwidth:  520 << 20,
		WriteBandwidth: 450 << 20,
	}
	// NVMe models a PCIe solid-state drive.
	NVMe = Model{
		Name:           "nvme",
		SeekLatency:    15 * time.Microsecond,
		ReadBandwidth:  3200 << 20,
		WriteBandwidth: 2500 << 20,
	}
)

// ResolveModel resolves a preset model name for configuration
// plumbing: "" means no model (nil), anything else must name a preset.
func ResolveModel(name string) (*Model, error) {
	var m Model
	switch name {
	case "":
		return nil, nil
	case "hdd":
		m = HDD
	case "ssd":
		m = SSD
	case "nvme":
		m = NVMe
	default:
		return nil, fmt.Errorf("disk: unknown disk model %q", name)
	}
	return &m, nil
}

// EstimateTime projects the measured counters onto the model:
// seeks × seek latency + bytes ÷ bandwidth.
func (m Model) EstimateTime(s Snapshot) time.Duration {
	d := time.Duration(s.Seeks) * m.SeekLatency
	if m.ReadBandwidth > 0 {
		d += time.Duration(float64(s.BytesRead) / float64(m.ReadBandwidth) * float64(time.Second))
	}
	if m.WriteBandwidth > 0 {
		d += time.Duration(float64(s.BytesWritten) / float64(m.WriteBandwidth) * float64(time.Second))
	}
	return d
}

// ReadTime models one random read access of n bytes: a seek plus the
// transfer at sequential read bandwidth.
func (m Model) ReadTime(n int64) time.Duration {
	d := m.SeekLatency
	if m.ReadBandwidth > 0 {
		d += time.Duration(float64(n) / float64(m.ReadBandwidth) * float64(time.Second))
	}
	return d
}

// WriteTime models one random write access of n bytes: a seek plus the
// transfer at sequential write bandwidth.
func (m Model) WriteTime(n int64) time.Duration {
	d := m.SeekLatency
	if m.WriteBandwidth > 0 {
		d += time.Duration(float64(n) / float64(m.WriteBandwidth) * float64(time.Second))
	}
	return d
}

// AppendTime models one sequential append of n bytes — a write landing
// at the journal tail the head is already parked on, so no seek, just
// transfer at sequential write bandwidth. This is the write path of a
// log-structured store (every production KV write path: WAL first),
// which is how the network state store absorbs worker partials.
func (m Model) AppendTime(n int64) time.Duration {
	if m.WriteBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(m.WriteBandwidth) * float64(time.Second))
}

// Throughput reports the effective bytes/second the model would achieve
// on the measured workload (total bytes over estimated time), the
// "throughput from the disk IO operations" metric named in the paper's
// future work. It returns 0 for an empty workload.
func (m Model) Throughput(s Snapshot) float64 {
	total := s.BytesRead + s.BytesWritten
	if total == 0 {
		return 0
	}
	t := m.EstimateTime(s)
	if t <= 0 {
		return 0
	}
	return float64(total) / t.Seconds()
}

// String implements fmt.Stringer.
func (m Model) String() string {
	return fmt.Sprintf("%s(seek=%v, read=%dMB/s, write=%dMB/s)",
		m.Name, m.SeekLatency, m.ReadBandwidth>>20, m.WriteBandwidth>>20)
}
