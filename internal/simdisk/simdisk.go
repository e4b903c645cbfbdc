// Package simdisk provides the storage substrate used by the wave-index
// implementation: a block-addressed store with an extent allocator and an
// explicit cost model (seeks and transfer time) that mirrors the disk
// parameters used in the paper's evaluation (seek = 14 ms, Trans = 10 MB/s).
//
// The paper's analytic model charges one seek per random access plus
// size/Trans for the transfer. The store reproduces that: any read or write
// that does not continue at the position where the previous operation ended
// is charged a seek; every operation is charged transfer time proportional
// to the bytes moved. SimTime reports the accumulated simulated disk time,
// which the experiment harness converts into the paper's "work" measure.
//
// Two backends are provided: a RAM-backed store (deterministic, used by the
// test suite and benchmarks) and a file-backed store (used by the examples
// that persist indexes across runs). Both implement BlockStore.
package simdisk

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultBlockSize is the block size used when a Config leaves BlockSize 0.
const DefaultBlockSize = 4096

// Default disk parameters, matching Table 12 of the paper.
const (
	DefaultSeekTime      = 14 * time.Millisecond
	DefaultTransferBytes = 10 << 20 // 10 MB/s
)

// Common errors returned by block stores.
var (
	ErrOutOfSpace    = errors.New("simdisk: out of space")
	ErrFreedExtent   = errors.New("simdisk: extent not allocated")
	ErrOutOfBounds   = errors.New("simdisk: access outside extent")
	ErrClosed        = errors.New("simdisk: store is closed")
	ErrDoubleFree    = errors.New("simdisk: extent already freed")
	ErrInvalidExtent = errors.New("simdisk: invalid extent")
)

// Extent identifies a contiguous run of blocks on the store.
type Extent struct {
	Start  int64 // first block number
	Blocks int64 // number of blocks
}

// Valid reports whether the extent describes a non-empty block run.
func (e Extent) Valid() bool { return e.Blocks > 0 && e.Start >= 0 }

// End returns the first block after the extent.
func (e Extent) End() int64 { return e.Start + e.Blocks }

// Bytes returns the extent's capacity in bytes for the given block size.
func (e Extent) Bytes(blockSize int) int64 { return e.Blocks * int64(blockSize) }

func (e Extent) String() string {
	return fmt.Sprintf("[%d+%d)", e.Start, e.Blocks)
}

// contains reports whether off..off+n bytes fit inside the extent.
func (e Extent) containsBytes(blockSize int, off, n int64) bool {
	return off >= 0 && n >= 0 && off+n <= e.Blocks*int64(blockSize)
}

// BlockStore is the storage abstraction the index layer builds on.
//
// All methods are safe for concurrent use.
type BlockStore interface {
	// Alloc reserves a contiguous extent of the given number of blocks.
	Alloc(blocks int64) (Extent, error)
	// Free releases an extent returned by Alloc.
	Free(Extent) error
	// WriteAt writes p at byte offset off within the extent.
	WriteAt(ext Extent, off int64, p []byte) error
	// ReadAt fills p from byte offset off within the extent.
	ReadAt(ext Extent, off int64, p []byte) error
	// BlockSize returns the store's block size in bytes.
	BlockSize() int
	// Stats returns a snapshot of the store's counters.
	Stats() Stats
	// ResetStats zeroes the activity counters (allocation state is kept).
	ResetStats()
	// Close releases resources held by the store.
	Close() error
}

// Config parameterises a store's geometry and cost model.
type Config struct {
	// BlockSize is the block size in bytes. 0 means DefaultBlockSize.
	BlockSize int
	// SeekTime is the simulated cost of one random seek.
	// 0 means DefaultSeekTime.
	SeekTime time.Duration
	// TransferRate is the simulated transfer rate in bytes per second.
	// 0 means DefaultTransferBytes.
	TransferRate int64
	// CapacityBlocks bounds the store size. 0 means unbounded.
	CapacityBlocks int64
}

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.SeekTime == 0 {
		c.SeekTime = DefaultSeekTime
	}
	if c.TransferRate == 0 {
		c.TransferRate = DefaultTransferBytes
	}
	return c
}

// Stats is a snapshot of store activity and occupancy.
type Stats struct {
	Seeks         int64         // random repositionings charged
	BlocksRead    int64         // blocks transferred store -> memory
	BlocksWritten int64         // blocks transferred memory -> store
	BytesRead     int64         // bytes transferred store -> memory
	BytesWritten  int64         // bytes transferred memory -> store
	Allocs        int64         // Alloc calls served
	Frees         int64         // Free calls served
	UsedBlocks    int64         // currently allocated blocks
	PeakBlocks    int64         // high-water mark of UsedBlocks
	SimTime       time.Duration // accumulated simulated disk time
}

// UsedBytes returns the currently allocated bytes for the given block size.
func (s Stats) UsedBytes(blockSize int) int64 { return s.UsedBlocks * int64(blockSize) }

// PeakBytes returns the peak allocated bytes for the given block size.
func (s Stats) PeakBytes(blockSize int) int64 { return s.PeakBlocks * int64(blockSize) }

// Sub returns the activity delta s - prev: cumulative fields are
// subtracted, while the occupancy fields (UsedBlocks, PeakBlocks) keep
// s's current values since they are levels, not totals. Two snapshots
// taken around a query attribute that query's disk work.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Seeks:         s.Seeks - prev.Seeks,
		BlocksRead:    s.BlocksRead - prev.BlocksRead,
		BlocksWritten: s.BlocksWritten - prev.BlocksWritten,
		BytesRead:     s.BytesRead - prev.BytesRead,
		BytesWritten:  s.BytesWritten - prev.BytesWritten,
		Allocs:        s.Allocs - prev.Allocs,
		Frees:         s.Frees - prev.Frees,
		UsedBlocks:    s.UsedBlocks,
		PeakBlocks:    s.PeakBlocks,
		SimTime:       s.SimTime - prev.SimTime,
	}
}

// SumStats aggregates the stats of several stores (e.g. one per wave
// disk): cumulative fields and occupancy levels add, and the peak is the
// sum of per-store peaks (an upper bound on the true combined peak).
func SumStats(stats ...Stats) Stats {
	var out Stats
	for _, s := range stats {
		out.Seeks += s.Seeks
		out.BlocksRead += s.BlocksRead
		out.BlocksWritten += s.BlocksWritten
		out.BytesRead += s.BytesRead
		out.BytesWritten += s.BytesWritten
		out.Allocs += s.Allocs
		out.Frees += s.Frees
		out.UsedBlocks += s.UsedBlocks
		out.PeakBlocks += s.PeakBlocks
		out.SimTime += s.SimTime
	}
	return out
}

// Cause labels the activity a store operation is performed on behalf
// of, splitting the paper's "total work" measure into its components:
// serving queries, running wave transitions, writing checkpoints, and
// replaying recovery. The zero value is CauseQuery, so a store that
// never hears about causes attributes everything to query work.
type Cause int

// Work-ledger causes, in ledger order.
const (
	CauseQuery Cause = iota
	CauseTransition
	CauseCheckpoint
	CauseRecovery
	numCauses
)

// Causes lists every ledger cause in stable order.
var Causes = [numCauses]Cause{CauseQuery, CauseTransition, CauseCheckpoint, CauseRecovery}

// String returns the cause's label as used in metrics and wire output.
func (c Cause) String() string {
	switch c {
	case CauseQuery:
		return "query"
	case CauseTransition:
		return "transition"
	case CauseCheckpoint:
		return "checkpoint"
	case CauseRecovery:
		return "recovery"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// MarshalText renders the cause by its label, so JSON documents (the
// INFO work section) read "query" rather than 0.
func (c Cause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a label written by MarshalText.
func (c *Cause) UnmarshalText(b []byte) error {
	for _, x := range Causes {
		if x.String() == string(b) {
			*c = x
			return nil
		}
	}
	return fmt.Errorf("simdisk: unknown cause %q", b)
}

// CauseStats is one row of a store's work ledger: the disk work charged
// while the store's cause was set to Cause.
type CauseStats struct {
	Cause        Cause
	Seeks        int64
	BytesRead    int64
	BytesWritten int64
	SimTime      time.Duration
}

// allocator hands out contiguous extents using a first-fit free list.
// The free list is kept sorted by start block and adjacent runs are
// coalesced on free, so a store that frees everything returns to a single
// run and later packed builds get fully contiguous space.
type allocator struct {
	free     []Extent        // sorted by Start, coalesced
	frontier int64           // first never-allocated block
	capacity int64           // 0 = unbounded
	live     map[int64]int64 // start block -> length, for validation
}

func newAllocator(capacity int64) *allocator {
	return &allocator{capacity: capacity, live: make(map[int64]int64)}
}

func (a *allocator) alloc(blocks int64) (Extent, error) {
	if blocks <= 0 {
		return Extent{}, ErrInvalidExtent
	}
	// First fit from the free list.
	for i, f := range a.free {
		if f.Blocks >= blocks {
			ext := Extent{Start: f.Start, Blocks: blocks}
			if f.Blocks == blocks {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = Extent{Start: f.Start + blocks, Blocks: f.Blocks - blocks}
			}
			a.live[ext.Start] = ext.Blocks
			return ext, nil
		}
	}
	// Extend the frontier.
	if a.capacity > 0 && a.frontier+blocks > a.capacity {
		return Extent{}, ErrOutOfSpace
	}
	ext := Extent{Start: a.frontier, Blocks: blocks}
	a.frontier += blocks
	a.live[ext.Start] = ext.Blocks
	return ext, nil
}

func (a *allocator) freeExtent(ext Extent) error {
	if !ext.Valid() {
		return ErrInvalidExtent
	}
	got, ok := a.live[ext.Start]
	if !ok {
		return ErrDoubleFree
	}
	if got != ext.Blocks {
		return fmt.Errorf("%w: freeing %v but allocation was %d blocks", ErrInvalidExtent, ext, got)
	}
	delete(a.live, ext.Start)
	// Insert into the sorted free list and coalesce with neighbours.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].Start >= ext.Start })
	a.free = append(a.free, Extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = ext
	// Coalesce with successor first so index i stays valid.
	if i+1 < len(a.free) && a.free[i].End() == a.free[i+1].Start {
		a.free[i].Blocks += a.free[i+1].Blocks
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].End() == a.free[i].Start {
		a.free[i-1].Blocks += a.free[i].Blocks
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// allocated reports whether the extent is currently live.
func (a *allocator) allocated(ext Extent) bool {
	got, ok := a.live[ext.Start]
	return ok && got == ext.Blocks
}

// costMeter accumulates the simulated disk time of a sequence of accesses.
type costMeter struct {
	seekTime time.Duration
	rate     int64 // bytes per second
	lastPos  int64 // byte position after the previous access, -1 = none
	simNanos int64
	seeks    int64
}

func newCostMeter(seek time.Duration, rate int64) *costMeter {
	return &costMeter{seekTime: seek, rate: rate, lastPos: -1}
}

// charge records an access of n bytes starting at absolute byte position
// pos, charging a seek unless the access is sequential with the previous
// one. It returns this access's contribution (seeks charged, simulated
// nanoseconds) so the caller can attribute it in the work ledger.
func (m *costMeter) charge(pos, n int64) (seeks, nanos int64) {
	if pos != m.lastPos {
		seeks = 1
		m.seeks++
		nanos += int64(m.seekTime)
	}
	if m.rate > 0 {
		nanos += n * int64(time.Second) / m.rate
	}
	m.simNanos += nanos
	m.lastPos = pos + n
	return seeks, nanos
}

// Store is a BlockStore with a pluggable byte backend.
type Store struct {
	cfg Config

	mu     sync.Mutex
	alloc  *allocator
	meter  *costMeter
	stats  Stats
	cause  Cause
	work   [numCauses]CauseStats
	faults faultSet
	closed bool
	data   backend
}

// backend stores raw bytes at absolute byte offsets.
type backend interface {
	writeAt(off int64, p []byte) error
	readAt(off int64, p []byte) error
	close() error
}

// NewRAM returns a RAM-backed store.
func NewRAM(cfg Config) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:   cfg,
		alloc: newAllocator(cfg.CapacityBlocks),
		meter: newCostMeter(cfg.SeekTime, cfg.TransferRate),
		data:  &ramBackend{},
	}
}

// BlockSize implements BlockStore.
func (s *Store) BlockSize() int { return s.cfg.BlockSize }

// CostParams returns the store's cost-model parameters: the per-seek
// simulated time and the transfer rate in bytes per second. Wrappers
// (e.g. the block cache) use them to price avoided work consistently.
func (s *Store) CostParams() (time.Duration, int64) {
	return s.cfg.SeekTime, s.cfg.TransferRate
}

// Alloc implements BlockStore.
func (s *Store) Alloc(blocks int64) (Extent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Extent{}, ErrClosed
	}
	if err := s.faults.check(opAlloc); err != nil {
		return Extent{}, err
	}
	ext, err := s.alloc.alloc(blocks)
	if err != nil {
		return Extent{}, err
	}
	s.stats.Allocs++
	s.stats.UsedBlocks += blocks
	if s.stats.UsedBlocks > s.stats.PeakBlocks {
		s.stats.PeakBlocks = s.stats.UsedBlocks
	}
	return ext, nil
}

// Free implements BlockStore.
func (s *Store) Free(ext Extent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.faults.check(opFree); err != nil {
		return err
	}
	if err := s.alloc.freeExtent(ext); err != nil {
		return err
	}
	s.stats.Frees++
	s.stats.UsedBlocks -= ext.Blocks
	return nil
}

// WriteAt implements BlockStore.
func (s *Store) WriteAt(ext Extent, off int64, p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.faults.check(opWrite); err != nil {
		return err
	}
	if !s.alloc.allocated(ext) {
		return ErrFreedExtent
	}
	if !ext.containsBytes(s.cfg.BlockSize, off, int64(len(p))) {
		return ErrOutOfBounds
	}
	abs := ext.Start*int64(s.cfg.BlockSize) + off
	if err := s.data.writeAt(abs, p); err != nil {
		return err
	}
	n := int64(len(p))
	seeks, nanos := s.meter.charge(abs, n)
	s.stats.BytesWritten += n
	s.stats.BlocksWritten += (n + int64(s.cfg.BlockSize) - 1) / int64(s.cfg.BlockSize)
	w := &s.work[s.cause]
	w.Seeks += seeks
	w.BytesWritten += n
	w.SimTime += time.Duration(nanos)
	return nil
}

// ReadAt implements BlockStore.
func (s *Store) ReadAt(ext Extent, off int64, p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.faults.check(opRead); err != nil {
		return err
	}
	if !s.alloc.allocated(ext) {
		return ErrFreedExtent
	}
	if !ext.containsBytes(s.cfg.BlockSize, off, int64(len(p))) {
		return ErrOutOfBounds
	}
	abs := ext.Start*int64(s.cfg.BlockSize) + off
	if err := s.data.readAt(abs, p); err != nil {
		return err
	}
	n := int64(len(p))
	seeks, nanos := s.meter.charge(abs, n)
	s.stats.BytesRead += n
	s.stats.BlocksRead += (n + int64(s.cfg.BlockSize) - 1) / int64(s.cfg.BlockSize)
	w := &s.work[s.cause]
	w.Seeks += seeks
	w.BytesRead += n
	w.SimTime += time.Duration(nanos)
	return nil
}

// Stats implements BlockStore.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Seeks = s.meter.seeks
	st.SimTime = time.Duration(s.meter.simNanos)
	return st
}

// ResetStats implements BlockStore. The work ledger is reset along with
// the activity counters; the current cause is kept.
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	used, peak := s.stats.UsedBlocks, s.stats.UsedBlocks
	s.stats = Stats{UsedBlocks: used, PeakBlocks: peak}
	s.work = [numCauses]CauseStats{}
	s.meter.seeks = 0
	s.meter.simNanos = 0
	s.meter.lastPos = -1
}

// SetCause labels subsequent disk work with the given cause. The label
// is store-wide: with concurrent activity of mixed provenance (e.g.
// queries running during a transition), work is attributed to whichever
// cause is current when each operation lands — approximate in the same
// way per-query Stats deltas are, and exact in the common case where
// transitions, checkpoints, and recovery hold the index lock.
func (s *Store) SetCause(c Cause) {
	if c < 0 || c >= numCauses {
		c = CauseQuery
	}
	s.mu.Lock()
	s.cause = c
	s.mu.Unlock()
}

// Cause returns the store's current work-attribution label.
func (s *Store) Cause() Cause {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cause
}

// Work returns the store's work ledger: one row per cause in Causes
// order, including zero rows, so callers can render a stable series set.
func (s *Store) Work() []CauseStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CauseStats, numCauses)
	for i := range s.work {
		out[i] = s.work[i]
		out[i].Cause = Cause(i)
	}
	return out
}

// SumWork adds work ledgers row-wise (e.g. across the stores of one
// index); all ledgers must come from Work, which fixes the row order.
func SumWork(ledgers ...[]CauseStats) []CauseStats {
	out := make([]CauseStats, numCauses)
	for i := range out {
		out[i].Cause = Cause(i)
	}
	for _, rows := range ledgers {
		for _, r := range rows {
			if r.Cause < 0 || r.Cause >= numCauses {
				continue
			}
			o := &out[r.Cause]
			o.Seeks += r.Seeks
			o.BytesRead += r.BytesRead
			o.BytesWritten += r.BytesWritten
			o.SimTime += r.SimTime
		}
	}
	return out
}

// Close implements BlockStore.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return s.data.close()
}

// FreeBlocks returns the number of blocks on the free list (fragmentation
// diagnostics for tests).
func (s *Store) FreeBlocks() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, f := range s.alloc.free {
		n += f.Blocks
	}
	return n
}

// FreeRuns returns the number of distinct runs on the free list.
func (s *Store) FreeRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.alloc.free)
}

// ramBackend stores bytes in a growable slice.
type ramBackend struct {
	buf []byte
}

func (r *ramBackend) grow(n int64) {
	if n <= int64(len(r.buf)) {
		return
	}
	nb := make([]byte, n+n/2)
	copy(nb, r.buf)
	r.buf = nb
}

func (r *ramBackend) writeAt(off int64, p []byte) error {
	r.grow(off + int64(len(p)))
	copy(r.buf[off:], p)
	return nil
}

func (r *ramBackend) readAt(off int64, p []byte) error {
	r.grow(off + int64(len(p)))
	copy(p, r.buf[off:])
	return nil
}

func (r *ramBackend) close() error {
	r.buf = nil
	return nil
}
