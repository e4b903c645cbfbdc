package main

import (
	"context"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/server"
	"waveindex/internal/simdisk"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// opClock accumulates wall time and call counts per operation name. It
// is safe for concurrent use.
type opClock struct {
	mu    sync.Mutex
	total map[string]time.Duration
	calls map[string]int64
	units map[string]int64 // work units per op (e.g. days built)
}

func newOpClock() *opClock {
	return &opClock{total: map[string]time.Duration{}, calls: map[string]int64{}, units: map[string]int64{}}
}

func (c *opClock) add(op string, d time.Duration, units int) {
	c.mu.Lock()
	c.total[op] += d
	c.calls[op]++
	c.units[op] += int64(units)
	c.mu.Unlock()
}

// reset forgets everything recorded so far.
func (c *opClock) reset() {
	c.mu.Lock()
	c.total, c.calls, c.units = map[string]time.Duration{}, map[string]int64{}, map[string]int64{}
	c.mu.Unlock()
}

// mean returns op's mean duration per call, or 0 if it never ran.
func (c *opClock) mean(op string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls[op] == 0 {
		return 0
	}
	return c.total[op] / time.Duration(c.calls[op])
}

// perUnit returns op's total duration per work unit, or 0.
func (c *opClock) perUnit(op string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.units[op] == 0 {
		return 0
	}
	return c.total[op] / time.Duration(c.units[op])
}

// routerBackend is the surface the server sees on a *shard.Router: the
// Backend plus every optional interface the server type-asserts.
// Embedding it in a decorator forwards all of them, so the traced
// server takes the same code paths as the untraced one.
type routerBackend interface {
	server.Backend
	server.Recoverer
	Journaled() bool
	CacheInfo() wave.CacheInfo
	ShardMetrics() []wave.MetricsSnapshot
	BreakerStates() []shard.BreakerInfo
	OpenBreakers() []int
}

var _ routerBackend = (*shard.Router)(nil)

// timedBackend sits between the server and the Router. It times the
// calls the workloads make, emits a "backend.<op>" span for each, and
// gives every request a unique trace ID (the connection's TRACE id plus
// a sequence number) so the engine's spans of one request share it.
type timedBackend struct {
	routerBackend
	clock  *opClock
	tracer core.Tracer
	seq    atomic.Int64
}

func (b *timedBackend) begin(ctx context.Context) (context.Context, string, time.Time) {
	id := wave.TraceIDFrom(ctx) + "/" + strconv.FormatInt(b.seq.Add(1), 10)
	return wave.WithTraceID(ctx, id), id, time.Now()
}

func (b *timedBackend) end(op, id string, start time.Time, err error) {
	d := time.Since(start)
	b.clock.add(op, d, 1)
	b.tracer.TraceEvent(core.TraceEvent{Kind: "backend." + op, Start: start, Duration: d, TraceID: id, Constituent: -1, Err: err})
}

func (b *timedBackend) Probe(ctx context.Context, key string) ([]wave.Entry, error) {
	ctx, id, start := b.begin(ctx)
	es, err := b.routerBackend.Probe(ctx, key)
	b.end("probe", id, start, err)
	return es, err
}

func (b *timedBackend) ProbeRange(ctx context.Context, key string, from, to int) ([]wave.Entry, error) {
	ctx, id, start := b.begin(ctx)
	es, err := b.routerBackend.ProbeRange(ctx, key, from, to)
	b.end("probe", id, start, err)
	return es, err
}

func (b *timedBackend) ScanRange(ctx context.Context, from, to int, fn func(string, wave.Entry) bool) error {
	ctx, id, start := b.begin(ctx)
	err := b.routerBackend.ScanRange(ctx, from, to, fn)
	b.end("scan", id, start, err)
	return err
}

func (b *timedBackend) TopKeys(ctx context.Context, k, from, to int) ([]wave.KeyCount, error) {
	ctx, id, start := b.begin(ctx)
	top, err := b.routerBackend.TopKeys(ctx, k, from, to)
	b.end("topk", id, start, err)
	return top, err
}

func (b *timedBackend) AddDay(day int, postings []wave.Posting) error {
	start := time.Now()
	err := b.routerBackend.AddDay(day, postings)
	b.end("addday", "", start, err)
	return err
}

// countingConn counts the bytes a client reads.
type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// timingStore times every block read and write issued to a store.
type timingStore struct {
	simdisk.BlockStore
	reads, writes   atomic.Int64
	readNs, writeNs atomic.Int64
}

func (s *timingStore) ReadAt(ext simdisk.Extent, off int64, p []byte) error {
	start := time.Now()
	err := s.BlockStore.ReadAt(ext, off, p)
	s.readNs.Add(int64(time.Since(start)))
	s.reads.Add(1)
	return err
}

func (s *timingStore) WriteAt(ext simdisk.Extent, off int64, p []byte) error {
	start := time.Now()
	err := s.BlockStore.WriteAt(ext, off, p)
	s.writeNs.Add(int64(time.Since(start)))
	s.writes.Add(1)
	return err
}

// searchConstituent is what a data-bearing constituent offers the
// wave: maintenance plus Searcher, MultiSearcher and DayBounder, which
// the engine type-asserts.
type searchConstituent interface {
	core.Constituent
	core.Searcher
	core.MultiSearcher
	core.DayBounder
}

// timedCoreBackend times the index builds a scheme asks its backend
// for, and the packed merges it asks the backend's constituents for.
type timedCoreBackend struct {
	core.Backend
	clock *opClock
}

// timedParallelBackend is timedCoreBackend for backends that also
// build in parallel; the scheme type-asserts ParallelBuilder.
type timedParallelBackend struct {
	*timedCoreBackend
	pb core.ParallelBuilder
}

// wrapCoreBackend decorates bk, keeping its ParallelBuilder surface.
func wrapCoreBackend(bk core.Backend, clock *opClock) core.Backend {
	t := &timedCoreBackend{Backend: bk, clock: clock}
	if pb, ok := bk.(core.ParallelBuilder); ok {
		return &timedParallelBackend{timedCoreBackend: t, pb: pb}
	}
	return t
}

func (b *timedCoreBackend) Build(days ...int) (core.Constituent, error) {
	start := time.Now()
	c, err := b.Backend.Build(days...)
	b.clock.add("build", time.Since(start), len(days))
	return b.wrap(c), err
}

func (b *timedCoreBackend) Empty() (core.Constituent, error) {
	c, err := b.Backend.Empty()
	return b.wrap(c), err
}

func (b *timedParallelBackend) BuildMany(clusters [][]int, parallelism int) ([]core.Constituent, error) {
	start := time.Now()
	cs, err := b.pb.BuildMany(clusters, parallelism)
	days := 0
	for _, c := range clusters {
		days += len(c)
	}
	b.clock.add("build", time.Since(start), days)
	for i := range cs {
		cs[i] = b.wrap(cs[i])
	}
	return cs, err
}

func (b *timedCoreBackend) wrap(c core.Constituent) core.Constituent {
	if sc, ok := c.(searchConstituent); ok {
		return &timedConstituent{searchConstituent: sc, bk: b}
	}
	return c
}

// timedConstituent times a constituent's packed merges; everything else,
// queries included, is forwarded untouched by embedding.
type timedConstituent struct {
	searchConstituent
	bk *timedCoreBackend
}

// Clone keeps the copy decorated, so its later merges are timed too.
func (c *timedConstituent) Clone() (core.Constituent, error) {
	cp, err := c.searchConstituent.Clone()
	return c.bk.wrap(cp), err
}

func (c *timedConstituent) PackedMerge(del, add []int) (core.Constituent, error) {
	start := time.Now()
	m, err := c.searchConstituent.PackedMerge(del, add)
	c.bk.clock.add("merge", time.Since(start), 1)
	return c.bk.wrap(m), err
}
