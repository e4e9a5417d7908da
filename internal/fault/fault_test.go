package fault

import (
	"errors"
	"net"
	"testing"
	"time"

	"knnpc/internal/disk"
)

func mustPlan(t *testing.T, cfg PlanConfig) *Plan {
	t.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var chaosCfg = PlanConfig{
	Seed:          42,
	DropRate:      0.1,
	DelayRate:     0.2,
	MaxDelay:      time.Millisecond,
	TornRate:      0.05,
	DiskErrRate:   0.1,
	DiskDelayRate: 0.2,
	MaxDiskDelay:  time.Millisecond,
}

// TestScheduleDeterminism is the contract the whole package exists
// for: equal (seed, connection index) pairs draw identical decision
// streams, draw by draw.
func TestScheduleDeterminism(t *testing.T) {
	a, b := mustPlan(t, chaosCfg), mustPlan(t, chaosCfg)
	for c := 0; c < 4; c++ {
		sa, sb := a.Conn(c), b.Conn(c)
		for i := 0; i < 256; i++ {
			da, db := sa.Next(OpWrite), sb.Next(OpWrite)
			if da != db {
				t.Fatalf("conn %d decision %d diverged: %+v vs %+v", c, i, da, db)
			}
		}
	}
}

// TestStreamsIndependent: connection streams must not be shifted
// copies of each other, and a different seed must produce a different
// stream — otherwise "per-connection seeded streams" collapses into
// one global sequence.
func TestStreamsIndependent(t *testing.T) {
	p := mustPlan(t, chaosCfg)
	if d := p.Digest(4, 128); d != p.Digest(4, 128) {
		t.Fatal("digest is not a pure function of the plan")
	}
	other := chaosCfg
	other.Seed = 43
	if mustPlan(t, chaosCfg).Digest(4, 128) == mustPlan(t, other).Digest(4, 128) {
		t.Fatal("adjacent seeds produced identical decision streams")
	}
	// Two connections of one plan: identical streams would mean the
	// index is not mixed into the derived seed.
	s0, s1 := p.Conn(0), p.Conn(1)
	same := true
	for i := 0; i < 64; i++ {
		if s0.Next(OpWrite) != s1.Next(OpWrite) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("connections 0 and 1 drew identical 64-decision streams")
	}
}

// TestDrawOrderAlignment: every draw is consumed on every call, so
// reading the stream as reads vs writes cannot shift later decisions.
func TestDrawOrderAlignment(t *testing.T) {
	p := mustPlan(t, chaosCfg)
	asReads, asWrites := p.Conn(7), p.Conn(7)
	for i := 0; i < 256; i++ {
		r, w := asReads.Next(OpRead), asWrites.Next(OpWrite)
		if r.Torn {
			t.Fatalf("decision %d: torn set on a read", i)
		}
		if r.Drop != w.Drop || r.Delay != w.Delay {
			t.Fatalf("decision %d: op kind shifted the stream (%+v vs %+v)", i, r, w)
		}
	}
}

// TestDiskHookDeterminism: the disk stream repeats per (seed, shard),
// differs across shards, and its errors wrap ErrInjected.
func TestDiskHookDeterminism(t *testing.T) {
	p := mustPlan(t, chaosCfg)
	a, b, other := p.DiskHook(3), p.DiskHook(3), p.DiskHook(4)
	sawErr, diverged := false, false
	for i := 0; i < 256; i++ {
		da, ea := a(disk.AccessRead, 512)
		db, eb := b(disk.AccessRead, 512)
		if da != db || (ea == nil) != (eb == nil) {
			t.Fatalf("access %d: same shard diverged", i)
		}
		if ea != nil {
			sawErr = true
			if !errors.Is(ea, ErrInjected) {
				t.Fatalf("injected disk error %v does not wrap ErrInjected", ea)
			}
		}
		do, eo := other(disk.AccessRead, 512)
		if da != do || (ea == nil) != (eo == nil) {
			diverged = true
		}
	}
	if !sawErr {
		t.Fatal("0 injected errors in 256 draws at rate 0.1")
	}
	if !diverged {
		t.Fatal("shards 3 and 4 drew identical 256-access streams")
	}
}

// TestZeroConfigInjectsNothing: the zero config is the documented
// no-fault plan.
func TestZeroConfigInjectsNothing(t *testing.T) {
	p := mustPlan(t, PlanConfig{Seed: 1})
	s := p.Conn(0)
	for i := 0; i < 64; i++ {
		if d := s.Next(OpWrite); d != (Decision{}) {
			t.Fatalf("zero config injected %+v", d)
		}
	}
	hook := p.DiskHook(0)
	for i := 0; i < 64; i++ {
		if d, err := hook(disk.AccessWrite, 1); d != 0 || err != nil {
			t.Fatalf("zero config injected disk fault (%v, %v)", d, err)
		}
	}
}

// TestListenerAssignsAcceptOrderIndices: conn i of a wrapped listener
// runs schedule i, so the accept order — not dial racing — names the
// stream.
func TestListenerAssignsAcceptOrderIndices(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, PlanConfig{Seed: 9, DropRate: 1})
	wrapped := p.Listener(ln)
	defer wrapped.Close()

	done := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		// The server side drops on its first read; our write may land
		// in kernel buffers, so only the subsequent read observes it.
		c.SetDeadline(time.Now().Add(5 * time.Second))
		c.Write([]byte("x"))
		_, err = c.Read(make([]byte, 1))
		done <- err
	}()

	sc, err := wrapped.Accept()
	if err != nil {
		t.Fatal(err)
	}
	fc, ok := sc.(*Conn)
	if !ok {
		t.Fatalf("accepted conn is %T, not *fault.Conn", sc)
	}
	if fc.Index() != 0 {
		t.Fatalf("first accepted conn has index %d", fc.Index())
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("DropRate=1 read returned %v, want ErrInjected", err)
	}
	if err := <-done; err == nil {
		t.Fatal("peer saw no failure after injected drop")
	}
}

// TestParseSpec round-trips the flag syntax and rejects junk.
func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("seed=42, drop=0.01,delay=0.05,maxdelay=5ms,torn=0.005,diskerr=0.01,diskdelay=0.02,maxdiskdelay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := PlanConfig{
		Seed: 42, DropRate: 0.01, DelayRate: 0.05, MaxDelay: 5 * time.Millisecond,
		TornRate: 0.005, DiskErrRate: 0.01, DiskDelayRate: 0.02, MaxDiskDelay: 2 * time.Millisecond,
	}
	if p.Config() != want {
		t.Fatalf("parsed %+v, want %+v", p.Config(), want)
	}
	for _, bad := range []string{"", "seed", "seed=x", "drop=2", "drop=NaN", "delay=0.5", "bogus=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// FuzzParseSpec: no -faults string panics the spec parser, and a spec
// it accepts yields a plan whose configuration validates and whose
// every rate is a probability.
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=42, drop=0.01,delay=0.05,maxdelay=5ms,torn=0.005,diskerr=0.01,diskdelay=0.02,maxdiskdelay=2ms")
	f.Add("seed=1")
	f.Add("drop=NaN")
	f.Add("delay=0.5,maxdelay=-1s")
	f.Add("torn=1e-300,,")
	f.Add("seed=-9223372036854775808,diskdelay=1,maxdiskdelay=1h")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		cfg := p.Config()
		if err := cfg.validate(); err != nil {
			t.Fatalf("spec %q accepted with an invalid config: %v", spec, err)
		}
		for _, rate := range []float64{cfg.DropRate, cfg.DelayRate, cfg.TornRate, cfg.DiskErrRate, cfg.DiskDelayRate} {
			if !(rate >= 0 && rate <= 1) {
				t.Fatalf("spec %q accepted with rate %v", spec, rate)
			}
		}
	})
}
