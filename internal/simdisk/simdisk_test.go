package simdisk

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestAllocSequentialExtents(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	a, err := s.Alloc(4)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	b, err := s.Alloc(2)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if a.Start != 0 || a.Blocks != 4 {
		t.Errorf("first extent = %v, want [0+4)", a)
	}
	if b.Start != 4 || b.Blocks != 2 {
		t.Errorf("second extent = %v, want [4+2)", b)
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	for _, n := range []int64{0, -1} {
		if _, err := s.Alloc(n); !errors.Is(err, ErrInvalidExtent) {
			t.Errorf("Alloc(%d) err = %v, want ErrInvalidExtent", n, err)
		}
	}
}

func TestFreeReuseFirstFit(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	a, _ := s.Alloc(4)
	if _, err := s.Alloc(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	c, err := s.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Start != 0 {
		t.Errorf("reallocation start = %d, want 0 (first fit into freed hole)", c.Start)
	}
}

func TestFreeCoalesces(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	a, _ := s.Alloc(2)
	b, _ := s.Alloc(2)
	c, _ := s.Alloc(2)
	// Free in an order that requires both forward and backward coalescing.
	for _, e := range []Extent{a, c, b} {
		if err := s.Free(e); err != nil {
			t.Fatalf("Free(%v): %v", e, err)
		}
	}
	if got := s.FreeRuns(); got != 1 {
		t.Errorf("FreeRuns = %d, want 1 after coalescing", got)
	}
	if got := s.FreeBlocks(); got != 6 {
		t.Errorf("FreeBlocks = %d, want 6", got)
	}
	// A subsequent large allocation must fit contiguously in the coalesced run.
	d, err := s.Alloc(6)
	if err != nil {
		t.Fatal(err)
	}
	if d.Start != 0 {
		t.Errorf("coalesced alloc start = %d, want 0", d.Start)
	}
}

func TestDoubleFree(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	a, _ := s.Alloc(1)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double Free err = %v, want ErrDoubleFree", err)
	}
}

func TestFreeWrongSize(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	a, _ := s.Alloc(4)
	if err := s.Free(Extent{Start: a.Start, Blocks: 2}); !errors.Is(err, ErrInvalidExtent) {
		t.Errorf("partial Free err = %v, want ErrInvalidExtent", err)
	}
}

func TestCapacityLimit(t *testing.T) {
	s := NewRAM(Config{CapacityBlocks: 8})
	defer s.Close()
	if _, err := s.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("over-capacity Alloc err = %v, want ErrOutOfSpace", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	ext, _ := s.Alloc(2)
	want := []byte("wave indices for evolving databases")
	if err := s.WriteAt(ext, 100, want); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if err := s.ReadAt(ext, 100, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read %q, want %q", got, want)
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	ext, _ := s.Alloc(1)
	p := []byte{1, 2, 3}
	if err := s.ReadAt(ext, 0, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, []byte{0, 0, 0}) {
		t.Errorf("unwritten read = %v, want zeros", p)
	}
}

func TestAccessBounds(t *testing.T) {
	s := NewRAM(Config{BlockSize: 64})
	defer s.Close()
	ext, _ := s.Alloc(1)
	if err := s.WriteAt(ext, 60, make([]byte, 8)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("overflowing WriteAt err = %v, want ErrOutOfBounds", err)
	}
	if err := s.ReadAt(ext, -1, make([]byte, 1)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("negative-offset ReadAt err = %v, want ErrOutOfBounds", err)
	}
}

func TestAccessFreedExtent(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	ext, _ := s.Alloc(1)
	if err := s.Free(ext); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(ext, 0, []byte{1}); !errors.Is(err, ErrFreedExtent) {
		t.Errorf("WriteAt freed extent err = %v, want ErrFreedExtent", err)
	}
	if err := s.ReadAt(ext, 0, []byte{1}); !errors.Is(err, ErrFreedExtent) {
		t.Errorf("ReadAt freed extent err = %v, want ErrFreedExtent", err)
	}
}

func TestSeekAccountingSequentialVsRandom(t *testing.T) {
	s := NewRAM(Config{BlockSize: 64})
	defer s.Close()
	ext, _ := s.Alloc(4)
	p := make([]byte, 64)
	// Sequential: one seek for the first access, then none.
	for i := 0; i < 4; i++ {
		if err := s.WriteAt(ext, int64(i)*64, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Seeks; got != 1 {
		t.Errorf("sequential writes: seeks = %d, want 1", got)
	}
	// Random: re-reading block 0 after ending at block 4 costs a seek.
	if err := s.ReadAt(ext, 0, p); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Seeks; got != 2 {
		t.Errorf("after random read: seeks = %d, want 2", got)
	}
}

func TestSimTimeMatchesModel(t *testing.T) {
	cfg := Config{BlockSize: 1024, SeekTime: 14 * time.Millisecond, TransferRate: 10 << 20}
	s := NewRAM(cfg)
	defer s.Close()
	ext, _ := s.Alloc(1)
	p := make([]byte, 1024)
	if err := s.WriteAt(ext, 0, p); err != nil {
		t.Fatal(err)
	}
	want := 14*time.Millisecond + time.Duration(1024*int64(time.Second)/(10<<20))
	if got := s.Stats().SimTime; got != want {
		t.Errorf("SimTime = %v, want %v", got, want)
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewRAM(Config{BlockSize: 128})
	defer s.Close()
	ext, _ := s.Alloc(2)
	p := make([]byte, 200)
	if err := s.WriteAt(ext, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(ext, 0, p[:100]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BytesWritten != 200 || st.BytesRead != 100 {
		t.Errorf("bytes = (%d w, %d r), want (200, 100)", st.BytesWritten, st.BytesRead)
	}
	if st.BlocksWritten != 2 || st.BlocksRead != 1 {
		t.Errorf("blocks = (%d w, %d r), want (2, 1)", st.BlocksWritten, st.BlocksRead)
	}
	if st.Allocs != 1 || st.UsedBlocks != 2 || st.PeakBlocks != 2 {
		t.Errorf("occupancy = %+v", st)
	}
}

func TestPeakBlocksHighWater(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	a, _ := s.Alloc(10)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(3); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.UsedBlocks != 3 || st.PeakBlocks != 10 {
		t.Errorf("used=%d peak=%d, want 3 and 10", st.UsedBlocks, st.PeakBlocks)
	}
}

func TestResetStatsKeepsOccupancy(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	ext, _ := s.Alloc(5)
	if err := s.WriteAt(ext, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	st := s.Stats()
	if st.Seeks != 0 || st.BytesWritten != 0 || st.SimTime != 0 {
		t.Errorf("activity not reset: %+v", st)
	}
	if st.UsedBlocks != 5 {
		t.Errorf("UsedBlocks = %d, want 5 preserved across reset", st.UsedBlocks)
	}
}

func TestClosedStore(t *testing.T) {
	s := NewRAM(Config{})
	ext, _ := s.Alloc(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Alloc after close err = %v", err)
	}
	if err := s.WriteAt(ext, 0, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteAt after close err = %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close err = %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	ext, _ := s.Alloc(1)
	boom := errors.New("boom")
	s.FailAfter(OpWrite, 2, boom)
	p := []byte{1}
	for i := 0; i < 2; i++ {
		if err := s.WriteAt(ext, 0, p); err != nil {
			t.Fatalf("write %d should pass: %v", i, err)
		}
	}
	if err := s.WriteAt(ext, 0, p); !errors.Is(err, boom) {
		t.Errorf("third write err = %v, want injected boom", err)
	}
	if !s.FaultFired() {
		t.Error("FaultFired = false after trigger")
	}
	// The plan fires once; later writes succeed again.
	if err := s.WriteAt(ext, 0, p); err != nil {
		t.Errorf("write after fault: %v", err)
	}
	// Clearing the plan.
	s.FailAfter(OpRead, 0, boom)
	s.FailAfter(OpRead, 0, nil)
	if err := s.ReadAt(ext, 0, p); err != nil {
		t.Errorf("read after cleared fault: %v", err)
	}
}

func TestFaultInjectionOtherOpsUnaffected(t *testing.T) {
	s := NewRAM(Config{})
	defer s.Close()
	boom := errors.New("boom")
	s.FailAfter(OpFree, 0, boom)
	ext, err := s.Alloc(1)
	if err != nil {
		t.Fatalf("Alloc with free-fault armed: %v", err)
	}
	if err := s.Free(ext); !errors.Is(err, boom) {
		t.Errorf("Free err = %v, want boom", err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.dat")
	s, err := NewFile(path, Config{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ext, err := s.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("persisted bucket payload")
	if err := s.WriteAt(ext, 17, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := s.ReadAt(ext, 17, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("file store read %q, want %q", got, want)
	}
	// Reading a never-written tail yields zeros like the RAM backend.
	tail := make([]byte, 16)
	if err := s.ReadAt(ext, 400, tail); err != nil {
		t.Fatal(err)
	}
	for _, b := range tail {
		if b != 0 {
			t.Fatalf("unwritten file region = %v, want zeros", tail)
		}
	}
}

// TestFileStoreReadErrorSurfaces closes the backing file under a live
// store: the failed read must surface as an error, not as zero bytes
// indistinguishable from a never-written region.
func TestFileStoreReadErrorSurfaces(t *testing.T) {
	s, err := NewFile(filepath.Join(t.TempDir(), "store.dat"), Config{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := s.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(ext, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.data.(*fileBackend).f.Close(); err != nil {
		t.Fatal(err)
	}
	got := []byte("sentinel")
	if err := s.ReadAt(ext, 0, got); err == nil {
		t.Fatalf("ReadAt on a closed backing file = nil error, read %q", got)
	}
}

func TestExtentHelpers(t *testing.T) {
	e := Extent{Start: 3, Blocks: 4}
	if !e.Valid() || e.End() != 7 || e.Bytes(512) != 2048 {
		t.Errorf("helpers: valid=%v end=%d bytes=%d", e.Valid(), e.End(), e.Bytes(512))
	}
	if (Extent{}).Valid() {
		t.Error("zero extent should be invalid")
	}
	if e.String() != "[3+4)" {
		t.Errorf("String = %q", e.String())
	}
	for op, want := range map[Op]string{OpAlloc: "alloc", OpFree: "free", OpRead: "read", OpWrite: "write", Op(99): "unknown"} {
		if op.String() != want {
			t.Errorf("Op(%d).String = %q, want %q", op, op.String(), want)
		}
	}
}

func TestStatsSubAndSum(t *testing.T) {
	a := Stats{Seeks: 10, BlocksRead: 100, BytesRead: 4096, BytesWritten: 512,
		Allocs: 3, Frees: 1, UsedBlocks: 40, PeakBlocks: 50, SimTime: 200 * time.Millisecond}
	b := Stats{Seeks: 4, BlocksRead: 30, BytesRead: 1024, BytesWritten: 512,
		Allocs: 2, Frees: 1, UsedBlocks: 35, PeakBlocks: 50, SimTime: 80 * time.Millisecond}
	d := a.Sub(b)
	if d.Seeks != 6 || d.BlocksRead != 70 || d.BytesRead != 3072 || d.BytesWritten != 0 {
		t.Fatalf("Sub cumulative fields wrong: %+v", d)
	}
	if d.SimTime != 120*time.Millisecond {
		t.Fatalf("Sub SimTime = %v, want 120ms", d.SimTime)
	}
	// Occupancy is a level: the delta keeps the newer snapshot's values.
	if d.UsedBlocks != 40 || d.PeakBlocks != 50 {
		t.Fatalf("Sub occupancy fields = %d/%d, want 40/50", d.UsedBlocks, d.PeakBlocks)
	}
	sum := SumStats(a, b)
	if sum.Seeks != 14 || sum.BlocksRead != 130 || sum.UsedBlocks != 75 || sum.PeakBlocks != 100 {
		t.Fatalf("SumStats wrong: %+v", sum)
	}
	if sum.SimTime != 280*time.Millisecond {
		t.Fatalf("SumStats SimTime = %v, want 280ms", sum.SimTime)
	}
	if z := SumStats(); z != (Stats{}) {
		t.Fatalf("SumStats() = %+v, want zero", z)
	}
}

// TestStatsSubAttributesWork checks the snapshot-delta idiom against a
// live store: the delta of two snapshots around a read covers exactly
// that read's charges.
func TestStatsSubAttributesWork(t *testing.T) {
	s := NewRAM(Config{BlockSize: 64})
	defer s.Close()
	ext, err := s.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(ext, 0, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.ReadAt(ext, 0, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	d := s.Stats().Sub(before)
	if d.BlocksRead != 4 || d.BytesRead != 256 {
		t.Fatalf("delta = %+v, want 4 blocks / 256 bytes read", d)
	}
	if d.Seeks == 0 || d.SimTime <= 0 {
		t.Fatalf("delta charged no disk time: %+v", d)
	}
	if d.BytesWritten != 0 || d.Allocs != 0 {
		t.Fatalf("delta leaked pre-snapshot work: %+v", d)
	}
}

// TestWorkLedgerAttribution drives one store through all four causes and
// checks that the ledger splits seeks, bytes, and simulated time per
// cause while the plain Stats totals stay the ledger's sum.
func TestWorkLedgerAttribution(t *testing.T) {
	s := NewRAM(Config{BlockSize: 64})
	defer s.Close()
	ext, err := s.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cause(); got != CauseQuery {
		t.Fatalf("default cause = %v, want query", got)
	}
	buf := make([]byte, 128)
	if err := s.WriteAt(ext, 0, buf); err != nil { // query write
		t.Fatal(err)
	}
	s.SetCause(CauseTransition)
	if err := s.ReadAt(ext, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(ext, 128, buf); err != nil {
		t.Fatal(err)
	}
	s.SetCause(CauseCheckpoint)
	if err := s.WriteAt(ext, 256, buf); err != nil {
		t.Fatal(err)
	}
	s.SetCause(CauseRecovery)
	if err := s.ReadAt(ext, 256, buf); err != nil {
		t.Fatal(err)
	}
	s.SetCause(CauseQuery)

	rows := s.Work()
	if len(rows) != len(Causes) {
		t.Fatalf("ledger has %d rows, want %d", len(rows), len(Causes))
	}
	byCause := map[Cause]CauseStats{}
	for _, r := range rows {
		byCause[r.Cause] = r
	}
	if r := byCause[CauseQuery]; r.BytesWritten != 128 || r.BytesRead != 0 {
		t.Fatalf("query row = %+v", r)
	}
	if r := byCause[CauseTransition]; r.BytesRead != 128 || r.BytesWritten != 128 {
		t.Fatalf("transition row = %+v", r)
	}
	if r := byCause[CauseCheckpoint]; r.BytesWritten != 128 || r.BytesRead != 0 {
		t.Fatalf("checkpoint row = %+v", r)
	}
	if r := byCause[CauseRecovery]; r.BytesRead != 128 || r.Seeks == 0 {
		t.Fatalf("recovery row = %+v", r)
	}

	st := s.Stats()
	var seeks int64
	var sim time.Duration
	for _, r := range rows {
		seeks += r.Seeks
		sim += r.SimTime
	}
	if seeks != st.Seeks || sim != st.SimTime {
		t.Fatalf("ledger sum (seeks %d, sim %v) != stats (seeks %d, sim %v)", seeks, sim, st.Seeks, st.SimTime)
	}

	sum := SumWork(rows, rows)
	if sum[CauseTransition].BytesRead != 256 {
		t.Fatalf("SumWork transition bytes read = %d, want 256", sum[CauseTransition].BytesRead)
	}

	s.ResetStats()
	for _, r := range s.Work() {
		if r.Seeks != 0 || r.BytesRead != 0 || r.BytesWritten != 0 || r.SimTime != 0 {
			t.Fatalf("ResetStats left ledger row %+v", r)
		}
	}
}
