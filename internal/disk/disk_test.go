package disk

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIOStatsCounting(t *testing.T) {
	var s IOStats
	s.AddLoad()
	s.AddLoad()
	s.AddUnload()
	s.AddSeek()
	s.AddRead(100)
	s.AddRead(50)
	s.AddWrite(30)
	s.AddCreate()

	snap := s.Snapshot()
	if snap.Loads != 2 || snap.Unloads != 1 || snap.Seeks != 1 {
		t.Errorf("load/unload/seek counters wrong: %+v", snap)
	}
	if snap.ReadOps != 2 || snap.BytesRead != 150 {
		t.Errorf("read counters wrong: %+v", snap)
	}
	if snap.WriteOps != 1 || snap.BytesWritten != 30 {
		t.Errorf("write counters wrong: %+v", snap)
	}
	if snap.Creates != 1 {
		t.Errorf("create counter wrong: %+v", snap)
	}
	if got := snap.LoadUnloadOps(); got != 3 {
		t.Errorf("LoadUnloadOps = %d, want 3", got)
	}

	s.Reset()
	if after := s.Snapshot(); after.LoadUnloadOps() != 0 || after.Seeks != 0 ||
		after.ReadOps != 0 || after.WriteOps != 0 || after.BytesRead != 0 || after.BytesWritten != 0 || after.Creates != 0 {
		t.Error("Reset should zero all counters")
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{Loads: 5, BytesRead: 100, Seeks: 3, Creates: 4}
	b := Snapshot{Loads: 2, BytesRead: 40, Seeks: 1, Creates: 4}
	d := a.Sub(b)
	if d.Loads != 3 || d.BytesRead != 60 || d.Seeks != 2 || d.Creates != 0 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestIOStatsConcurrent(t *testing.T) {
	var s IOStats
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.AddRead(1)
				s.AddLoad()
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.BytesRead != 8000 || snap.Loads != 8000 {
		t.Errorf("concurrent counting lost updates: %+v", snap)
	}
}

func TestModelEstimateTime(t *testing.T) {
	m := Model{
		Name:           "test",
		SeekLatency:    10 * time.Millisecond,
		ReadBandwidth:  100, // 100 B/s to make the math obvious
		WriteBandwidth: 50,
	}
	s := Snapshot{Seeks: 2, BytesRead: 200, BytesWritten: 100}
	// 2×10ms + 200/100 s + 100/50 s = 4.02 s
	want := 20*time.Millisecond + 4*time.Second
	if got := m.EstimateTime(s); got != want {
		t.Errorf("EstimateTime = %v, want %v", got, want)
	}
}

func TestModelOrdering(t *testing.T) {
	// A seek-heavy workload must be far slower on HDD than SSD than NVMe.
	s := Snapshot{Seeks: 1000, BytesRead: 64 << 20, BytesWritten: 64 << 20}
	hdd, ssd, nvme := HDD.EstimateTime(s), SSD.EstimateTime(s), NVMe.EstimateTime(s)
	if !(hdd > ssd && ssd > nvme) {
		t.Errorf("expected hdd > ssd > nvme, got %v %v %v", hdd, ssd, nvme)
	}
	if hdd < 9*time.Second {
		t.Errorf("1000 seeks on HDD should cost ≥9s, got %v", hdd)
	}
}

func TestModelThroughput(t *testing.T) {
	if got := SSD.Throughput(Snapshot{}); got != 0 {
		t.Errorf("empty workload throughput = %v, want 0", got)
	}
	s := Snapshot{BytesRead: 520 << 20} // exactly one second of SSD reads
	tp := SSD.Throughput(s)
	if tp < 500<<20 || tp > 540<<20 {
		t.Errorf("throughput = %v, want ≈520MB/s", tp)
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"hdd", "ssd", "nvme"} {
		m, ok := ModelByName(name)
		if !ok || m.Name != name {
			t.Errorf("ModelByName(%q) = %v, %v", name, m, ok)
		}
	}
	if _, ok := ModelByName("floppy"); ok {
		t.Error("unknown model should report false")
	}
}

func TestReadWriteFileCounted(t *testing.T) {
	var s IOStats
	path := filepath.Join(t.TempDir(), "blob")
	data := []byte("hello out-of-core world")
	if err := WriteFile(&s, path, data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(&s, path, nil)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != string(data) {
		t.Errorf("round trip mismatch: %q", got)
	}
	snap := s.Snapshot()
	if snap.Seeks != 2 || snap.BytesWritten != int64(len(data)) || snap.BytesRead != int64(len(data)) {
		t.Errorf("counters wrong: %+v", snap)
	}
}

// TestWriteFileRewritesInPlace: WriteFile rewrites an existing file in
// place, so a shorter rewrite must cut off the old tail and a longer one
// extend the file — each leaves exactly the new bytes, counted once —
// and only the first write creates the file.
func TestWriteFileRewritesInPlace(t *testing.T) {
	var s IOStats
	path := filepath.Join(t.TempDir(), "state")
	for i, data := range []string{"a long first partition state", "short", "a longer third partition state"} {
		if err := WriteFile(&s, path, []byte(data)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Fatalf("after write %d the file holds %q, want %q", i, got, data)
		}
	}
	if snap := s.Snapshot(); snap.Seeks != 3 || snap.WriteOps != 3 || snap.Creates != 1 {
		t.Errorf("three rewrites counted as %d seeks, %d writes, %d creates", snap.Seeks, snap.WriteOps, snap.Creates)
	}
}

func TestReadFileMissing(t *testing.T) {
	var s IOStats
	if _, err := ReadFile(&s, filepath.Join(t.TempDir(), "nope"), nil); err == nil {
		t.Error("reading a missing file should fail")
	}
}

func TestRecordFileRoundTrip(t *testing.T) {
	var s IOStats
	path := filepath.Join(t.TempDir(), "records")
	w, err := CreateRecordFile(&s, path)
	if err != nil {
		t.Fatalf("CreateRecordFile: %v", err)
	}
	records := [][]byte{[]byte("first"), {}, []byte("third record")}
	for _, rec := range records {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d, want 3", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := new(ReadBuffers).Open(&s, path, w.Size())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	for i, want := range records {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if string(got) != string(want) {
			t.Errorf("record %d = %q, want %q", i, got, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("after last record want io.EOF, got %v", err)
	}
}

// TestRecordFilesThroughRecycledBuffers: files read one after another
// through one ReadBuffers (so each may get the previous one's buffers,
// still holding its bytes) give back exactly what was written, longer
// and shorter records alike, whatever the writer's buffer size; double
// Close of a reader is harmless.
func TestRecordFilesThroughRecycledBuffers(t *testing.T) {
	var (
		s    IOStats
		bufs ReadBuffers
	)
	dir := t.TempDir()
	// The 5000-byte payload gets a write buffer of exactly one record,
	// so the record after it goes out in a second write.
	for i, payload := range []string{"a longer first record", "second", "", strings.Repeat("x", 5000), "short again"} {
		path := filepath.Join(dir, fmt.Sprint("records", i))
		w, err := CreateRecordFile(&s, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []string{payload, "tail"} {
			if err := w.Append([]byte(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := bufs.Open(&s, path, w.Size())
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{payload, "tail"} {
			if got, err := r.Next(); err != nil || string(got) != want {
				t.Fatalf("file %d read back %d bytes, %v; want the %d written", i, len(got), err, len(want))
			}
		}
		if _, err := r.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("file %d: want io.EOF after the records, got %v", i, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

// TestRecordFileWithNoRecords: a writer closed before any Append never
// sized a buffer and leaves an empty, readable file.
func TestRecordFileWithNoRecords(t *testing.T) {
	var s IOStats
	path := filepath.Join(t.TempDir(), "records")
	w, err := CreateRecordFile(&s, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := new(ReadBuffers).Open(&s, path, w.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF from an empty record file, got %v", err)
	}
}

// TestReadFileReusesTheBuffer: a buffer that fits is filled in
// place; one that does not is replaced; either way the bytes are the
// file's.
func TestReadFileReusesTheBuffer(t *testing.T) {
	var s IOStats
	path := filepath.Join(t.TempDir(), "blob")
	want := []byte("0123456789")
	if err := WriteFile(&s, path, want); err != nil {
		t.Fatal(err)
	}
	roomy := make([]byte, 3, 64)
	got, err := ReadFile(&s, path, roomy)
	if err != nil || string(got) != string(want) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if &got[0] != &roomy[0] {
		t.Error("a buffer with room was not reused")
	}
	for _, size := range []int{0, 4, len(want)} { // too small, and exactly full
		got, err := ReadFile(&s, path, make([]byte, 0, size))
		if err != nil || string(got) != string(want) {
			t.Errorf("cap %d: ReadFile = %q, %v", size, got, err)
		}
	}
	if snap := s.Snapshot(); snap.BytesRead != int64(4*len(want)) {
		t.Errorf("BytesRead = %d, want %d", snap.BytesRead, 4*len(want))
	}
}

func TestRecordReaderTruncated(t *testing.T) {
	var s IOStats
	path := filepath.Join(t.TempDir(), "records")
	w, err := CreateRecordFile(&s, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-payload.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := new(ReadBuffers).Open(&s, path, w.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated record should yield a real error, got %v", err)
	}
}

// TestRecordFileRewrittenShorter: a record file reopened for a shorter
// write keeps the earlier write's tail on disk, and a reader opened
// with the new writer's Size serves exactly the new records. Only the
// first open creates the file.
func TestRecordFileRewrittenShorter(t *testing.T) {
	var s IOStats
	path := filepath.Join(t.TempDir(), "records")
	for i, recs := range [][]string{{"a long first write", "and more of it", "and more"}, {"short"}, {}} {
		w, err := CreateRecordFile(&s, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.Append([]byte(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := new(ReadBuffers).Open(&s, path, w.Size())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			got = append(got, string(rec))
		}
		r.Close()
		if !slices.Equal(got, recs) {
			t.Fatalf("write %d read back %q, want %q", i, got, recs)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("the first write's bytes should still be on disk: %v", err)
	}
	if c := s.Snapshot().Creates; c != 1 {
		t.Errorf("three writes of one file counted %d creates, want 1", c)
	}
}

// TestRecordReaderShortFile: a file that ends before the size its
// writer reported is an error, not a clean end of records.
func TestRecordReaderShortFile(t *testing.T) {
	var s IOStats
	path := filepath.Join(t.TempDir(), "records")
	w, err := CreateRecordFile(&s, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := new(ReadBuffers).Open(&s, path, w.Size()+11)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("a file 11 bytes short should yield a real error, got %v", err)
	}
}

func TestBudgetReserveRelease(t *testing.T) {
	b := NewBudget(100)
	if err := b.Reserve(60); err != nil {
		t.Fatalf("Reserve(60): %v", err)
	}
	if err := b.Reserve(50); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-reserve should fail with ErrBudgetExceeded, got %v", err)
	}
	if b.Used() != 60 {
		t.Errorf("failed reserve must not charge: used=%d", b.Used())
	}
	if err := b.Reserve(40); err != nil {
		t.Fatalf("Reserve(40): %v", err)
	}
	if b.Peak() != 100 {
		t.Errorf("Peak = %d, want 100", b.Peak())
	}
	b.Release(70)
	b.ResetPeak()
	if b.Peak() != 30 {
		t.Errorf("Peak after ResetPeak = %d, want the 30 bytes still reserved", b.Peak())
	}
	b.Release(30)
	if b.Used() != 0 {
		t.Errorf("Used after release = %d, want 0", b.Used())
	}
	b.Release(10) // over-release clamps
	if b.Used() != 0 {
		t.Errorf("over-release should clamp at 0, got %d", b.Used())
	}
	if err := b.Reserve(-1); err == nil {
		t.Error("negative reservation should fail")
	}
}

func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget(0)
	if err := b.Reserve(1 << 40); err != nil {
		t.Errorf("unlimited budget should accept any reservation: %v", err)
	}
}

func TestScratchOwnedLifecycle(t *testing.T) {
	s, err := NewScratch("")
	if err != nil {
		t.Fatalf("NewScratch: %v", err)
	}
	dir := s.Dir()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("scratch dir should exist: %v", err)
	}
	p := s.Path("a", "b")
	if want := filepath.Join(dir, "a", "b"); p != want {
		t.Errorf("Path = %q, want %q", p, want)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Error("owned scratch dir should be removed on Close")
	}
}

func TestScratchCallerOwnedPreserved(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "keep")
	s, err := NewScratch(dir)
	if err != nil {
		t.Fatalf("NewScratch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Error("caller-owned dir must survive Close")
	}
}

// TestScratchSharedParent: two scratches over one directory get
// private directories of their own, and once both close the parent
// holds exactly what it held before.
func TestScratchSharedParent(t *testing.T) {
	parent := t.TempDir()
	if err := os.WriteFile(filepath.Join(parent, "mine"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := NewScratch(parent)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScratch(parent)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dir() == b.Dir() || filepath.Dir(a.Dir()) != parent || filepath.Dir(b.Dir()) != parent {
		t.Fatalf("scratch dirs %s and %s should be distinct children of %s", a.Dir(), b.Dir(), parent)
	}
	for _, s := range []*Scratch{a, b} {
		if err := WriteFile(new(IOStats), s.Path("state-0.bin"), []byte(s.Dir())); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(a.Path("state-0.bin")); string(got) != a.Dir() {
		t.Errorf("scratch %s reads another's file: %q", a.Dir(), got)
	}
	for _, s := range []*Scratch{a, b} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "mine" {
		t.Errorf("parent holds %v after both scratches closed, want only its own file", entries)
	}
}

// TestDeviceNilAndDebt: a nil Device is a no-op everywhere (callers
// plumb one pointer without nil checks), and a real device amortizes
// sub-millisecond accesses through its debt instead of sleeping each
// one — total modeled time stays proportional to the work.
func TestDeviceNilAndDebt(t *testing.T) {
	var nilDev *Device
	nilDev.Read(1 << 20)  // must not panic
	nilDev.Write(1 << 20) // must not panic

	dev := NewDevice(Model{Name: "test", SeekLatency: 100 * time.Microsecond, ReadBandwidth: 1 << 30, WriteBandwidth: 1 << 30})
	start := time.Now()
	for i := 0; i < 20; i++ {
		dev.Read(0)
	}
	elapsed := time.Since(start)
	// 20 seeks × 100µs = 2ms of modeled time; debt batching must keep
	// the real elapsed time in that ballpark, not 20 × a timer tick.
	if elapsed < time.Millisecond {
		t.Errorf("20 modeled seeks took %v, expected ≥ 1ms of enforced latency", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("20 modeled seeks took %v — debt amortization is not working", elapsed)
	}
	if dev.Model().Name != "test" {
		t.Errorf("Model() = %q", dev.Model().Name)
	}
}

// TestDeviceDebtExactUnderConcurrency is the satellite accounting
// test: N goroutines hammering Read/Write concurrently — the multi-
// worker phase-4 access pattern — must leave aggregate modeled device
// time exact to within the 1ms sleep granularity. Two properties pin
// it: the books must balance exactly (modeled == slept + debt; a
// credit-back that double-counted elapsed time across concurrent
// sleeps would break this identity), and the hammer's wall time must
// cover the modeled total minus the one never-slept sub-millisecond
// residue (a device that let concurrent accessors sleep in parallel,
// or credited one accessor's sleep to another, would finish early).
func TestDeviceDebtExactUnderConcurrency(t *testing.T) {
	model := Model{Name: "test", SeekLatency: 200 * time.Microsecond, ReadBandwidth: 1 << 30, WriteBandwidth: 1 << 30}
	dev := NewDevice(model)
	const goroutines, accesses = 8, 40
	perOp := model.SeekLatency // zero-byte ops cost exactly one seek

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < accesses; i++ {
				if (g+i)%2 == 0 {
					dev.Read(0)
				} else {
					dev.Write(0)
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	modeled, slept, debt := dev.Accounting()
	want := time.Duration(goroutines*accesses) * perOp
	if modeled != want {
		t.Fatalf("modeled %v, want %v (%d×%d accesses of %v)", modeled, want, goroutines, accesses, perOp)
	}
	if slept+debt != modeled {
		t.Fatalf("books do not balance: slept %v + debt %v != modeled %v (elapsed time credited more than once?)",
			slept, debt, modeled)
	}
	if debt >= time.Millisecond {
		t.Fatalf("final debt %v at or above the sleep granularity was never slept", debt)
	}
	if min := modeled - time.Millisecond; elapsed < min {
		t.Fatalf("hammer finished in %v, modeled total is %v — the device under-slept", elapsed, modeled)
	}

	var nilDev *Device
	if m, s, d := nilDev.Accounting(); m != 0 || s != 0 || d != 0 {
		t.Errorf("nil device reported accounting %v/%v/%v", m, s, d)
	}
}

// TestPerShardDeviceAccounting: IOStats rolls registered per-shard
// devices into its snapshots — one DeviceAccounting entry per spindle,
// in registration order, with the slept+debt==modeled invariant pinned
// per shard even under concurrent access, and name-matched subtraction
// in Sub.
func TestPerShardDeviceAccounting(t *testing.T) {
	model := Model{Name: "unit", SeekLatency: 200 * time.Microsecond}
	var s IOStats
	shard0 := NewNamedDevice(model, "shard0")
	shard1 := NewNamedDevice(model, "shard1")
	s.RegisterDevice(shard0)
	s.RegisterDevice(shard1)
	s.RegisterDevice(nil) // must be ignored

	before := s.Snapshot()
	if len(before.Devices) != 2 {
		t.Fatalf("registered 2 devices, snapshot has %d", len(before.Devices))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				shard0.Read(0)
				if g%2 == 0 {
					shard1.Write(0)
				}
			}
		}(g)
	}
	wg.Wait()

	after := s.Snapshot()
	if len(after.Devices) != 2 || after.Devices[0].Name != "shard0" || after.Devices[1].Name != "shard1" {
		t.Fatalf("device entries wrong: %+v", after.Devices)
	}
	for _, d := range after.Devices {
		if d.Modeled == 0 {
			t.Fatalf("%s never charged", d.Name)
		}
		if d.Slept+d.Debt != d.Modeled {
			t.Fatalf("%s: slept %v + debt %v != modeled %v — per-shard books must balance",
				d.Name, d.Slept, d.Debt, d.Modeled)
		}
	}
	if w0, w1 := after.Devices[0].Modeled, after.Devices[1].Modeled; w0 != 2*w1 {
		t.Fatalf("shard0 modeled %v, shard1 %v — want exactly 2x (200 vs 100 accesses)", w0, w1)
	}

	d := after.Sub(before)
	if len(d.Devices) != 2 {
		t.Fatalf("Sub dropped device entries: %+v", d.Devices)
	}
	for i := range d.Devices {
		if d.Devices[i].Modeled != after.Devices[i].Modeled-before.Devices[i].Modeled {
			t.Fatalf("Sub of %s not name-matched: %+v", d.Devices[i].Name, d.Devices[i])
		}
		if d.Devices[i].Slept+d.Devices[i].Debt != d.Devices[i].Modeled {
			t.Fatalf("Sub of %s broke the per-shard invariant: %+v", d.Devices[i].Name, d.Devices[i])
		}
	}

	// A device registered only in the newer snapshot keeps its full
	// accounting through Sub.
	late := NewNamedDevice(model, "late")
	s.RegisterDevice(late)
	late.Read(0)
	d2 := s.Snapshot().Sub(before)
	found := false
	for _, dev := range d2.Devices {
		if dev.Name == "late" && dev.Modeled > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("late-registered device missing from Sub: %+v", d2.Devices)
	}
}

// TestAppendTimeIsSeekless: a journal append pays transfer only —
// strictly cheaper than a random write of the same size by exactly the
// seek — and Device.Append still lands in the modeled books.
func TestAppendTimeIsSeekless(t *testing.T) {
	m := Model{Name: "unit", SeekLatency: 5 * time.Millisecond, WriteBandwidth: 100 << 20}
	n := int64(1 << 20)
	if got, want := m.WriteTime(n)-m.AppendTime(n), m.SeekLatency; got != want {
		t.Fatalf("write - append = %v, want the seek %v", got, want)
	}
	if m.AppendTime(0) != 0 {
		t.Fatalf("empty append costs %v", m.AppendTime(0))
	}
	if (Model{}).AppendTime(n) != 0 {
		t.Fatal("zero model should append for free")
	}
	dev := NewNamedDevice(m, "journal")
	dev.Append(n)
	modeled, slept, debt := dev.Accounting()
	if modeled != m.AppendTime(n) {
		t.Fatalf("modeled %v, want %v", modeled, m.AppendTime(n))
	}
	if slept+debt != modeled {
		t.Fatalf("books unbalanced: %v + %v != %v", slept, debt, modeled)
	}
}

// TestResetRebaselinesDevices: Reset's "zero all counters" promise
// covers per-device times — a post-Reset snapshot starts device books
// from zero (still balanced), while the Device's own cumulative
// accounting is untouched for other holders.
func TestResetRebaselinesDevices(t *testing.T) {
	m := Model{Name: "unit", SeekLatency: 2 * time.Millisecond}
	var s IOStats
	dev := NewNamedDevice(m, "shard0")
	s.RegisterDevice(dev)
	dev.Read(0)
	if before := s.Snapshot(); before.Devices[0].Modeled == 0 {
		t.Fatal("device never charged")
	}
	s.Reset()
	after := s.Snapshot()
	if d := after.Devices[0]; d.Modeled != 0 || d.Slept != 0 || d.Debt != 0 {
		t.Fatalf("post-Reset snapshot still carries device time: %+v", d)
	}
	dev.Read(0)
	d := s.Snapshot().Devices[0]
	if d.Modeled != m.ReadTime(0) {
		t.Fatalf("post-Reset charge %v, want one read %v", d.Modeled, m.ReadTime(0))
	}
	if d.Slept+d.Debt != d.Modeled {
		t.Fatalf("rebaselined books unbalanced: %+v", d)
	}
	if modeled, _, _ := dev.Accounting(); modeled != 2*m.ReadTime(0) {
		t.Fatalf("device's own cumulative books were clobbered: %v", modeled)
	}
}
