// Package fault builds deterministic, seeded fault plans — the chaos
// counterpart of internal/load's BuildPlan: a fixed seed produces a
// bit-identical fault sequence, so a chaos run that kills a shard or
// tears a frame is as reproducible as the workload that provoked it.
//
// A Plan is pure configuration plus a seed. Every consumer derives an
// independent decision stream from it:
//
//   - Listener wraps a net.Listener; each accepted connection gets the
//     schedule for its accept index, injecting connection drops,
//     read/write delays, and torn (half-written) frames into the
//     netstore protocol stream.
//   - DiskHook derives a disk.FaultHook for one shard's emulated
//     device, injecting access delays and transient I/O errors.
//
// Determinism contract: decision i of connection c (and of shard s's
// disk stream) is a pure function of (Seed, c, i) — independent of
// wall-clock time, goroutine interleaving, and every other stream.
// Two runs with the same seed present every connection slot and every
// disk access index with the same faults; Digest pins the stream so a
// harness can assert exactly that. What can differ between runs is
// only how far into its stream each connection gets before the
// workload moves on.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"knnpc/internal/disk"
)

// ErrInjected marks every failure this package manufactures, so tests
// and error classifiers can tell injected chaos from organic failures
// with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Op distinguishes the two I/O directions a connection schedule draws
// decisions for.
type Op uint8

const (
	// OpRead is an inbound read on a fault-wrapped connection.
	OpRead Op = iota
	// OpWrite is an outbound write on a fault-wrapped connection.
	OpWrite
)

// PlanConfig parameterizes a fault plan. All rates are probabilities
// in [0, 1] drawn independently per I/O; zero values inject nothing,
// so the zero config is a valid no-fault plan.
type PlanConfig struct {
	// Seed fixes every decision stream. Two plans with equal configs
	// are identical; two plans differing only in Seed agree on nothing.
	Seed int64
	// DropRate is the per-I/O probability that the connection is
	// closed instead of performing the I/O.
	DropRate float64
	// DelayRate is the per-I/O probability of an injected stall.
	DelayRate float64
	// MaxDelay bounds each injected stall; draws are uniform in
	// (0, MaxDelay]. Required when DelayRate > 0.
	MaxDelay time.Duration
	// TornRate is the per-write probability that only a prefix of the
	// buffer is written before the connection is closed — a torn
	// frame, the shape a mid-write crash leaves on the wire.
	TornRate float64
	// DiskErrRate is the per-access probability that an emulated
	// device access fails with a transient injected error.
	DiskErrRate float64
	// DiskDelayRate is the per-access probability of an injected
	// device stall.
	DiskDelayRate float64
	// MaxDiskDelay bounds each injected device stall. Required when
	// DiskDelayRate > 0.
	MaxDiskDelay time.Duration
}

// validate rejects configurations that cannot mean anything.
func (c PlanConfig) validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"DropRate", c.DropRate},
		{"DelayRate", c.DelayRate},
		{"TornRate", c.TornRate},
		{"DiskErrRate", c.DiskErrRate},
		{"DiskDelayRate", c.DiskDelayRate},
	}
	for _, r := range rates {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.DelayRate > 0 && c.MaxDelay <= 0 {
		return fmt.Errorf("fault: DelayRate %v with no MaxDelay", c.DelayRate)
	}
	if c.DiskDelayRate > 0 && c.MaxDiskDelay <= 0 {
		return fmt.Errorf("fault: DiskDelayRate %v with no MaxDiskDelay", c.DiskDelayRate)
	}
	return nil
}

// Plan is a validated fault plan. It is immutable and safe for
// concurrent use; all mutable state lives in the schedules it derives.
type Plan struct {
	cfg PlanConfig
}

// NewPlan validates cfg and fixes the plan.
func NewPlan(cfg PlanConfig) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Plan{cfg: cfg}, nil
}

// Config reports the plan's configuration.
func (p *Plan) Config() PlanConfig { return p.cfg }

// deriveSeed mixes the plan seed with a stream discriminator and index
// through splitmix64, so derived streams are decorrelated even for
// adjacent seeds and indices.
func deriveSeed(seed int64, stream uint64, index int) int64 {
	z := uint64(seed) ^ (stream * 0x9e3779b97f4a7c15) ^ (uint64(index+1) * 0xbf58476d1ce4e5b9)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stream discriminators for deriveSeed. Distinct constants keep the
// connection and disk decision streams independent.
const (
	streamConn = 0x636f6e6e // "conn"
	streamDisk = 0x6469736b // "disk"
)

// Decision is one I/O's injected faults, drawn from a Schedule. The
// zero Decision injects nothing.
type Decision struct {
	// Drop closes the connection (or fails the access) instead of
	// performing the I/O.
	Drop bool
	// Delay stalls the I/O before it proceeds (or before the drop).
	Delay time.Duration
	// Torn truncates a write to a prefix and closes the connection.
	// Never set on reads.
	Torn bool
}

// Schedule is one connection's deterministic decision stream. Next
// draws decisions in a fixed order, so decision i is a pure function
// of the (plan seed, connection index) pair. A Schedule is safe for
// concurrent use, though a connection's reads and writes are normally
// issued by one goroutine at a time.
type Schedule struct {
	cfg PlanConfig

	mu  sync.Mutex
	rng *rand.Rand
	io  int
}

// Conn derives connection index i's schedule. Equal (plan, i) pairs
// always yield identical streams.
func (p *Plan) Conn(i int) *Schedule {
	return &Schedule{
		cfg: p.cfg,
		rng: rand.New(rand.NewSource(deriveSeed(p.cfg.Seed, streamConn, i))),
	}
}

// Next draws the next I/O's decision. The draw order per I/O is fixed
// — drop, torn, delay occurrence, delay duration — and every draw is
// consumed regardless of which faults hit, so the stream's alignment
// never depends on prior outcomes.
func (s *Schedule) Next(op Op) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.io++
	var d Decision
	d.Drop = s.rng.Float64() < s.cfg.DropRate
	torn := s.rng.Float64() < s.cfg.TornRate
	delay := s.rng.Float64() < s.cfg.DelayRate
	dur := s.rng.Int63n(int64(max(s.cfg.MaxDelay, 1))) + 1
	if op == OpWrite {
		d.Torn = torn
	}
	if delay && s.cfg.MaxDelay > 0 {
		d.Delay = time.Duration(dur)
	}
	return d
}

// IO reports how many decisions the schedule has drawn — the
// connection's position in its stream.
func (s *Schedule) IO() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.io
}

// DiskHook derives shard's device fault hook: per-access injected
// delays and transient errors, drawn from the shard's own stream in a
// fixed order (error, delay occurrence, delay duration). Errors it
// returns wrap ErrInjected. The hook serializes its draws internally,
// matching the device's own per-shard serialization.
func (p *Plan) DiskHook(shard int) disk.FaultHook {
	cfg := p.cfg
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, streamDisk, shard)))
	access := 0
	return func(kind disk.AccessKind, n int64) (time.Duration, error) {
		mu.Lock()
		defer mu.Unlock()
		access++
		fail := rng.Float64() < cfg.DiskErrRate
		delay := rng.Float64() < cfg.DiskDelayRate
		dur := rng.Int63n(int64(max(cfg.MaxDiskDelay, 1))) + 1
		var d time.Duration
		if delay && cfg.MaxDiskDelay > 0 {
			d = time.Duration(dur)
		}
		if fail {
			return d, fmt.Errorf("%w: disk shard %d access %d (%v of %d bytes)", ErrInjected, shard, access, kind, n)
		}
		return d, nil
	}
}

// Digest fingerprints the plan's decision streams: the first perConn
// decisions of the first conns connection schedules (written as write
// decisions, which exercise every field) plus the first perConn draws
// of the first conns disk streams, hashed with FNV-64a. Two plans
// digest equal iff their streams agree, so a harness can assert that
// the same seed reproduces the same fault sequence without replaying
// any I/O.
func (p *Plan) Digest(conns, perConn int) string {
	h := fnv.New64a()
	buf := make([]byte, 0, 16)
	for c := 0; c < conns; c++ {
		s := p.Conn(c)
		for i := 0; i < perConn; i++ {
			d := s.Next(OpWrite)
			buf = buf[:0]
			buf = append(buf, byte(c), boolByte(d.Drop), boolByte(d.Torn))
			buf = appendI64(buf, int64(d.Delay))
			h.Write(buf)
		}
		hook := p.DiskHook(c)
		for i := 0; i < perConn; i++ {
			delay, err := hook(disk.AccessRead, 1)
			buf = buf[:0]
			buf = append(buf, byte(c), boolByte(err != nil))
			buf = appendI64(buf, int64(delay))
			h.Write(buf)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendI64(buf []byte, v int64) []byte {
	u := uint64(v)
	return append(buf, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}
