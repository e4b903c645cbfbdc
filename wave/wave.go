// Package wave provides sliding-window ("wave") indexes over daily data
// batches, after "Wave-Indices: Indexing Evolving Databases" (Shivakumar
// and Garcia-Molina, SIGMOD 1997).
//
// A wave index keeps the last W days of records queryable by partitioning
// the days across n conventional indexes and rolling the window forward
// one day at a time. Six maintenance algorithms are offered — DEL,
// REINDEX, REINDEX+, REINDEX++, WATA*, and RATA* — that trade transition
// latency, total daily work, space, and code complexity differently; see
// DESIGN.md for the trade-off analysis and the examples directory for
// runnable scenarios.
//
// Basic usage:
//
//	idx, _ := wave.New(wave.Config{Window: 7, Indexes: 4, Scheme: wave.REINDEX})
//	for day := 1; day <= 7; day++ {
//		idx.AddDay(day, postingsFor(day)) // index fills as days arrive
//	}
//	// From day 8 on, each AddDay expires the oldest day automatically.
//	entries, _ := idx.Probe(context.Background(), "needle")
//
// Every query method takes a context first (cancellation stops the
// engine between constituent reads); the full read surface is the
// Querier interface, implemented identically by Index, Journaled, and
// shard.Router.
package wave

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/index"
	"waveindex/internal/simdisk"
)

// Scheme selects the wave-index maintenance algorithm.
type Scheme = core.Kind

// The six maintenance algorithms of the paper.
const (
	// DEL deletes the expired day's entries and inserts the new day's in
	// their place. Hard window; needs deletion code; n = 1 gives the
	// classic single-index solution.
	DEL = core.KindDEL
	// REINDEX rebuilds the affected constituent from scratch each day.
	// Hard window; always packed; rebuilds W/n days daily.
	REINDEX = core.KindREINDEX
	// REINDEXPlus (REINDEX+) halves REINDEX's average rebuild work with
	// one temporary index.
	REINDEXPlus = core.KindREINDEXPlus
	// REINDEXPlusPlus (REINDEX++) pre-builds a ladder of temporaries so
	// new data is queryable after indexing a single day.
	REINDEXPlusPlus = core.KindREINDEXPlusPlus
	// WATAStar (WATA*) appends new days and throws whole indexes away
	// once all their days expire. Soft window (up to
	// ceil((W-1)/(n-1))-1 extra days); minimal daily work; needs n >= 2.
	WATAStar = core.KindWATAStar
	// RATAStar (RATA*) is WATA* plus pre-built temporaries that simulate
	// a hard window with bulk deletes only. Needs n >= 2.
	RATAStar = core.KindRATAStar
)

// UpdateTechnique selects how constituent indexes are updated (§2.1 of
// the paper).
type UpdateTechnique = core.Technique

// The three update techniques.
const (
	// InPlace updates the live index directly under the wave's write
	// lock. No extra space; result unpacked.
	InPlace = core.InPlace
	// SimpleShadow copies the index and updates the copy; queries
	// continue on the original until the swap. Default.
	SimpleShadow = core.SimpleShadow
	// PackedShadow merge-copies into a fresh packed layout, dropping
	// expired entries on the way. Keeps every index packed.
	PackedShadow = core.PackedShadow
)

// Directory selects the constituent indexes' directory structure.
type Directory = index.DirKind

// Directory structures.
const (
	// HashDirectory uses an in-memory hash table (O(1) probes).
	HashDirectory = index.HashDir
	// BTreeDirectory uses an in-memory B+Tree (ordered iteration without
	// sorting).
	BTreeDirectory = index.BTreeDir
)

// Posting is one (search value, entry) pair of a day's batch.
type Posting = index.Posting

// Entry is an index entry: a record pointer, associated information, and
// the insertion-day timestamp.
type Entry = index.Entry

// Errors returned by Index methods.
var (
	// ErrNotReady is returned by queries before Window days have been
	// ingested.
	ErrNotReady = errors.New("wave: index not ready: fewer than Window days ingested")
	// ErrBadDay is returned when AddDay receives a non-consecutive day.
	ErrBadDay = errors.New("wave: days must be added consecutively")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("wave: index closed")
	// ErrBadConfig wraps every configuration validation error returned by
	// New and Load; test with errors.Is.
	ErrBadConfig = errors.New("wave: bad config")
	// ErrTransitionAborted wraps the failure that interrupted an AddDay
	// transition. The index keeps answering queries from the surviving
	// constituents (Degraded reports true) but refuses further mutation
	// until recovered.
	ErrTransitionAborted = errors.New("wave: transition aborted")
	// ErrNeedsRecovery is returned by AddDay after an aborted transition:
	// the in-memory wave may be torn mid-maintenance, so mutations are
	// refused until Recover (on a Journaled index) or a reload from a
	// snapshot restores a consistent state.
	ErrNeedsRecovery = errors.New("wave: index needs recovery")
)

// Config configures a wave index.
type Config struct {
	// Window is W: the number of days kept queryable. Required.
	Window int
	// Indexes is n: the number of constituent indexes. 0 means a scheme-
	// dependent default (4, or 2 if Window < 4; never below the scheme's
	// minimum).
	Indexes int
	// Scheme is the maintenance algorithm. Default DEL.
	Scheme Scheme
	// Update is the §2.1 update technique. Default SimpleShadow.
	Update UpdateTechnique
	// Directory selects hash or B+Tree directories. Default hash.
	Directory Directory
	// GrowthFactor is the CONTIGUOUS growth factor g for incremental
	// updates (2.0 suits skewed keys, 1.08 uniform ones). 0 means 2.0.
	GrowthFactor float64
	// BlockSize is the store's block size in bytes. 0 means 4096.
	BlockSize int
	// StorePath, when non-empty, backs the index with the file at that
	// path instead of RAM. With Stores > 1, store i > 0 is backed by
	// "<StorePath>.<i>".
	StorePath string
	// Stores is the number of independent block stores the constituents
	// are spread over — the paper's §8 multi-disk setting, where queries
	// parallelise across devices. 0 or 1 means a single store.
	Stores int
	// Parallelism bounds the query engine's worker pool, and likewise the
	// maintenance engine's: how many constituent builds Start may run
	// concurrently across stores, and how many CPU-side workers bulk
	// index operations use. 0 means one worker per store when Stores > 1,
	// otherwise sequential maintenance and one query worker per
	// constituent. Maintenance parallelism never changes the built
	// wave's content or its simulated per-store disk cost — only
	// wall-clock time.
	Parallelism int
	// CacheBlocks, when positive, interposes a write-through LRU block
	// cache of that many blocks between the index and the store — the
	// memory caching the paper credits for batched updates' efficiency.
	CacheBlocks int
	// CacheResults, when positive, installs a per-constituent result
	// cache of that many result rows: probe buckets and aggregate
	// results are memoized against the constituent generation they were
	// computed from, so wave transitions invalidate only the rebuilt
	// constituents' entries (see README's Caching chapter). 0 disables
	// result caching — the reference behaviour benches compare against.
	CacheResults int
	// FirstDay is the day number of the first batch. 0 means 1.
	FirstDay int
	// Trace, when non-nil, receives structured span events for queries
	// (whole-query and per-constituent), transition phases, and snapshot
	// persistence. Implementations must be safe for concurrent use.
	Trace Tracer
	// SlowQueryThreshold enables the slow-query log: queries at or above
	// this wall time are recorded in a ring buffer readable via
	// SlowQueries. 0 disables the log (it can be enabled later with
	// SetSlowQueryThreshold).
	SlowQueryThreshold time.Duration
	// SlowLogSize is the slow-query ring's capacity. 0 means 128; a
	// negative value disables the ring entirely.
	SlowLogSize int
	// DisableMetrics turns the per-index metrics registry off: Metrics
	// returns an empty snapshot and queries skip all counter updates.
	DisableMetrics bool

	// crash arms named crash points inside the maintenance algorithms;
	// used by the chaos tests to abort transitions at chosen steps.
	crash *core.CrashSet
	// extraObserver is fanned into the scheme and backend observers; the
	// journal layer uses it to record step completion.
	extraObserver core.Observer
}

func (c Config) normalized() (Config, error) {
	if c.Window < 1 {
		return c, fmt.Errorf("%w: Window = %d, must be >= 1", ErrBadConfig, c.Window)
	}
	if c.Indexes == 0 {
		c.Indexes = 4
		if c.Window < 4 {
			c.Indexes = 2
		}
		if c.Indexes > c.Window {
			c.Indexes = c.Window
		}
	}
	if min := c.Scheme.MinN(); c.Indexes < min {
		return c, fmt.Errorf("%w: scheme %s requires at least %d indexes", ErrBadConfig, c.Scheme, min)
	}
	if c.Indexes > c.Window {
		return c, fmt.Errorf("%w: Indexes = %d exceeds Window = %d", ErrBadConfig, c.Indexes, c.Window)
	}
	if c.FirstDay == 0 {
		c.FirstDay = 1
	}
	if c.FirstDay < 1 {
		return c, fmt.Errorf("%w: FirstDay = %d, must be >= 1", ErrBadConfig, c.FirstDay)
	}
	if c.Stores < 0 {
		return c, fmt.Errorf("%w: Stores = %d, must be >= 0", ErrBadConfig, c.Stores)
	}
	if c.Stores == 0 {
		c.Stores = 1
	}
	if c.Parallelism < 0 {
		return c, fmt.Errorf("%w: Parallelism = %d, must be >= 0", ErrBadConfig, c.Parallelism)
	}
	if c.SlowQueryThreshold < 0 {
		return c, fmt.Errorf("%w: SlowQueryThreshold = %v, must be >= 0", ErrBadConfig, c.SlowQueryThreshold)
	}
	return c, nil
}

// Index is a sliding-window index over daily batches. All methods are
// safe for concurrent use: queries proceed against the published wave
// while AddDay runs (the §2.1 shadow-update story), and the mutating
// methods (AddDay, SaveSnapshot, Close) serialise among themselves.
type Index struct {
	cfg     Config
	stores  []*simdisk.Store
	bcaches []*simdisk.Cache // block caches wrapping stores (empty when off)
	rcOn    bool             // a result cache is installed on the wave
	src     *core.MemorySource
	scheme  core.Scheme
	obs     *observability
	ing     *ingester

	mu            sync.Mutex // guards the fields below and mutating methods
	nextDay       int
	ready         bool
	closed        bool
	needsRecovery bool // a transition aborted; mutations refused
	// winFrom/winTo cache the scheme's published window. Queries read the
	// window here rather than from the scheme, whose fields are mutated by
	// transitions: going to the scheme would either race with the
	// maintenance goroutine or force Window to wait on mu for a whole
	// transition. Updated under mu each time an AddDay completes.
	winFrom, winTo int
}

// newStores opens the configured number of block stores. Store 0 uses
// StorePath verbatim; later stores append ".<i>".
func newStores(cfg Config) ([]*simdisk.Store, error) {
	out := make([]*simdisk.Store, 0, cfg.Stores)
	for i := 0; i < cfg.Stores; i++ {
		var st *simdisk.Store
		var err error
		if cfg.StorePath != "" {
			path := cfg.StorePath
			if i > 0 {
				path = fmt.Sprintf("%s.%d", cfg.StorePath, i)
			}
			st, err = simdisk.NewFile(path, simdisk.Config{BlockSize: cfg.BlockSize})
		} else {
			st = simdisk.NewRAM(simdisk.Config{BlockSize: cfg.BlockSize})
		}
		if err != nil {
			for _, s := range out {
				s.Close()
			}
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// New creates a wave index.
func New(cfg Config) (*Index, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	stores, err := newStores(cfg)
	if err != nil {
		return nil, err
	}
	closeStores := func() {
		for _, s := range stores {
			s.Close()
		}
	}
	// Retain a little beyond the window: REINDEX-family schemes re-read
	// old days when rebuilding clusters.
	src := core.NewMemorySource(cfg.Window + 2)
	// Maintenance parallelism: explicit Parallelism, else one builder per
	// store (sequential on a single store — the deterministic default).
	maintPar := cfg.Parallelism
	if maintPar == 0 && cfg.Stores > 1 {
		maintPar = cfg.Stores
	}
	opts := index.Options{Dir: cfg.Directory, Growth: cfg.GrowthFactor, Parallelism: maintPar}
	ob := newObservability(cfg, stores)
	obsCore := combineObservers(ob.coreObserver(), cfg.extraObserver)
	var bk core.Backend
	var bcaches []*simdisk.Cache
	if len(stores) == 1 {
		var bs simdisk.BlockStore = stores[0]
		if cfg.CacheBlocks > 0 {
			bc := simdisk.NewCache(stores[0], cfg.CacheBlocks)
			bcaches = append(bcaches, bc)
			bs = bc
		}
		bk = core.NewDataBackend(bs, opts, src, obsCore)
	} else {
		pool := make([]simdisk.BlockStore, len(stores))
		for i, st := range stores {
			if cfg.CacheBlocks > 0 {
				bc := simdisk.NewCache(st, cfg.CacheBlocks)
				bcaches = append(bcaches, bc)
				pool[i] = bc
			} else {
				pool[i] = st
			}
		}
		bk, err = core.NewMultiDiskBackend(pool, opts, src, obsCore)
		if err != nil {
			closeStores()
			return nil, err
		}
	}
	scheme, err := core.NewScheme(cfg.Scheme, core.Config{
		W:           cfg.Window,
		N:           cfg.Indexes,
		Technique:   cfg.Update,
		StartDay:    cfg.FirstDay,
		Parallelism: maintPar,
		Observer:    obsCore,
		Crash:       cfg.crash,
	}, bk)
	if err != nil {
		closeStores()
		return nil, err
	}
	if cfg.Parallelism > 0 {
		scheme.Wave().SetParallelism(cfg.Parallelism)
	} else if len(stores) > 1 {
		// One query worker per device: more adds no disk parallelism.
		scheme.Wave().SetParallelism(len(stores))
	}
	if cfg.CacheResults > 0 {
		scheme.Wave().SetResultCache(core.NewResultCache(cfg.CacheResults))
	}
	qm := ob.queryMetrics()
	scheme.Wave().SetInstrumentation(&qm, cfg.Trace)
	ob.reg.Gauge("maint_parallelism").Set(int64(max(maintPar, 1)))
	x := &Index{cfg: cfg, stores: stores, bcaches: bcaches, rcOn: cfg.CacheResults > 0, src: src, scheme: scheme, obs: ob, nextDay: cfg.FirstDay}
	ob.setCaches(x.cacheInfo)
	x.ing = newIngester(x.AddDay, x.pendingNextDay)
	return x, nil
}

// AddDay ingests one day's postings. Days must arrive consecutively
// starting at Config.FirstDay. The index becomes queryable once Window
// days have been ingested; every later AddDay rolls the window forward,
// expiring the oldest day.
func (x *Index) AddDay(day int, postings []Posting) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	if x.needsRecovery {
		return ErrNeedsRecovery
	}
	if day != x.nextDay {
		return fmt.Errorf("%w: got day %d, want %d", ErrBadDay, day, x.nextDay)
	}
	start := time.Now()
	restore := x.setWorkCause(simdisk.CauseTransition)
	defer restore()
	x.src.Put(&index.Batch{Day: day, Postings: postings})
	x.nextDay++
	err := func() error {
		if !x.ready {
			if day-x.cfg.FirstDay+1 == x.cfg.Window {
				if err := x.scheme.Start(); err != nil {
					return err
				}
				x.ready = true
			}
			return nil
		}
		return x.scheme.Transition(day)
	}()
	if err != nil {
		// The maintenance state may be torn mid-algorithm: refuse further
		// mutation (queries keep running on the published wave, degraded
		// to the surviving constituents) until recovery rebuilds a
		// consistent index.
		x.needsRecovery = true
		return fmt.Errorf("%w: day %d: %w", ErrTransitionAborted, day, err)
	}
	if x.ready {
		// The scheme is quiescent here (mu serializes transitions), so
		// these reads are safe; queries will see the new window from the
		// cache without ever touching scheme state.
		x.winFrom, x.winTo = x.scheme.WindowStart(), x.scheme.LastDay()
	}
	x.obs.ingestDays.Inc()
	x.obs.ingestUS.Observe(time.Since(start).Microseconds())
	return nil
}

// pendingNextDay returns the day the next synchronous AddDay expects.
func (x *Index) pendingNextDay() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.nextDay
}

// AddDayAsync ingests one day's postings asynchronously: the call
// returns once the day is queued, and a single maintenance goroutine
// applies queued days in order while queries keep being served from the
// published wave — the pipelined form of §5's transitions. Days must
// still arrive consecutively. The queue is bounded; a caller that
// outruns maintenance blocks until a slot frees. Errors from the
// transition itself surface on Flush (and on subsequent AddDayAsync
// calls); Flush must be observed before trusting that queued days are
// queryable. Mixing AddDay and AddDayAsync is allowed only when the
// async queue is empty (Flush first).
func (x *Index) AddDayAsync(day int, postings []Posting) error {
	err := x.ing.enqueue(day, postings)
	if err == nil {
		x.obs.ingestQueue.Observe(int64(x.ing.depth()))
	}
	return err
}

// Flush blocks until every day queued by AddDayAsync has been applied
// and returns the first transition failure, if any. A failure is sticky
// — like a failed AddDay it leaves the index refusing mutation until
// recovered — so Flush keeps returning it.
func (x *Index) Flush() error { return x.ing.flush() }

// IngestQueueDepth returns the number of days queued or being applied
// by the asynchronous ingestion pipeline.
func (x *Index) IngestQueueDepth() int { return x.ing.depth() }

// NeedsRecovery reports whether a transition aborted, leaving the index
// read-only until recovered (see Journaled.Recover) or reloaded from a
// snapshot.
func (x *Index) NeedsRecovery() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.needsRecovery
}

// Degraded reports whether queries are being served from a subset of the
// wave: a transition aborted, or a constituent broke mid-mutation and is
// being skipped. A degraded index answers with the days that survive —
// typically W-1 of the W-day window — rather than erroring.
func (x *Index) Degraded() bool {
	x.mu.Lock()
	nr := x.needsRecovery
	x.mu.Unlock()
	return nr || x.scheme.Wave().Degraded()
}

// setWorkCause labels the stores' disk work with c for the duration of
// a maintenance operation; calling restore puts the previous labels
// back. A store already carrying a non-query cause keeps it, so e.g.
// the transitions recovery replays stay attributed to recovery. The
// label is store-wide: query work landing while a maintenance cause is
// set is attributed to that cause — the same approximation as per-query
// Stats deltas.
func (x *Index) setWorkCause(c simdisk.Cause) (restore func()) {
	prev := make([]simdisk.Cause, len(x.stores))
	changed := false
	for i, s := range x.stores {
		prev[i] = s.Cause()
		if prev[i] == simdisk.CauseQuery {
			s.SetCause(c)
			changed = true
		}
	}
	if !changed {
		return func() {}
	}
	return func() {
		for i, s := range x.stores {
			s.SetCause(prev[i])
		}
	}
}

// combineObservers fans transition events out to both observers, either
// of which may be nil.
func combineObservers(a, b core.Observer) core.Observer {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return core.FanoutObserver{a, b}
}

// Ready reports whether Window days have been ingested and the index
// answers queries.
func (x *Index) Ready() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.ready
}

// Window returns the first and last day of the current required window.
// Before the index is ready, it returns (FirstDay, last ingested day).
func (x *Index) Window() (from, to int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.ready {
		return x.cfg.FirstDay, x.nextDay - 1
	}
	return x.winFrom, x.winTo
}

// HardWindow reports whether the configured scheme indexes exactly the
// window (true) or may retain a few expired days (WATA*).
func (x *Index) HardWindow() bool { return x.scheme.HardWindow() }

// Probe returns the entries for key within the current required window,
// ordered by (day, record). The query engine issues the per-constituent
// reads concurrently when its pool allows it; with Parallelism 1 the
// reads run sequentially on the caller's goroutine. Once ctx is done the
// query stops issuing constituent reads and returns ctx's error.
func (x *Index) Probe(ctx context.Context, key string) ([]Entry, error) {
	from, to := x.Window()
	return x.ProbeRange(ctx, key, from, to)
}

// ProbeRange returns the entries for key inserted between day from and to
// (inclusive). This is the paper's TimedIndexProbe: only constituents
// whose clusters intersect the range are read.
func (x *Index) ProbeRange(ctx context.Context, key string, from, to int) ([]Entry, error) {
	if err := x.queryable(); err != nil {
		return nil, err
	}
	start, before, track := x.obs.begin()
	es, err := x.scheme.Wave().ParallelTimedIndexProbeCtx(ctx, key, from, to)
	if track {
		x.obs.end("probe", key, core.TraceIDFrom(ctx), 0, from, to, len(es), start, before, err)
	}
	return es, err
}

// queryable checks the index is open and ready.
func (x *Index) queryable() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	if !x.ready {
		return ErrNotReady
	}
	return nil
}

// MultiProbe probes a batch of keys within the current window in one
// pass: each qualifying constituent answers the whole (deduplicated)
// batch with its buckets read in disk order, and constituents run
// concurrently on the query engine. The result maps each key with
// entries to its (day, record)-ordered entry list.
func (x *Index) MultiProbe(ctx context.Context, keys []string) (map[string][]Entry, error) {
	from, to := x.Window()
	return x.MultiProbeRange(ctx, keys, from, to)
}

// MultiProbeRange is MultiProbe over days [from, to].
func (x *Index) MultiProbeRange(ctx context.Context, keys []string, from, to int) (map[string][]Entry, error) {
	if err := x.queryable(); err != nil {
		return nil, err
	}
	start, before, track := x.obs.begin()
	m, err := x.scheme.Wave().MultiProbeCtx(ctx, keys, from, to)
	if track {
		entries := 0
		for _, es := range m {
			entries += len(es)
		}
		x.obs.end("mprobe", "", core.TraceIDFrom(ctx), len(keys), from, to, entries, start, before, err)
	}
	return m, err
}

// SetParallelism resizes the query engine's worker pool; in-flight
// queries keep the pool they started with.
func (x *Index) SetParallelism(p int) { x.scheme.Wave().SetParallelism(p) }

// Parallelism returns the query engine's concurrency bound.
func (x *Index) Parallelism() int { return x.scheme.Wave().Parallelism() }

// Scan visits every entry in the current required window in ascending
// key order; fn returning false stops the scan. This is the paper's
// TimedSegmentScan clamped to the window. The merge stops between key
// groups once ctx is done and the scan returns ctx's error.
func (x *Index) Scan(ctx context.Context, fn func(key string, e Entry) bool) error {
	from, to := x.Window()
	return x.ScanRange(ctx, from, to, fn)
}

// ScanRange visits every entry inserted between day from and to.
func (x *Index) ScanRange(ctx context.Context, from, to int, fn func(key string, e Entry) bool) error {
	return x.scanGroups(ctx, from, to, func(key string, es []Entry) bool {
		for _, e := range es {
			if !fn(key, e) {
				return false
			}
		}
		return true
	})
}

// scanGroups is the scan every ScanRange and scan-derived aggregate runs:
// the wave's TimedSegmentScan over [from, to], delivered one
// constituent's key group at a time (a key held by several constituents
// arrives as consecutive groups), recorded as one "scan" query.
func (x *Index) scanGroups(ctx context.Context, from, to int, fn func(key string, es []Entry) bool) error {
	if err := x.queryable(); err != nil {
		return err
	}
	start, before, track := x.obs.begin()
	if !track {
		return x.scheme.Wave().SegmentScanGroupsCtx(ctx, from, to, fn)
	}
	entries := 0
	err := x.scheme.Wave().SegmentScanGroupsCtx(ctx, from, to, func(key string, es []Entry) bool {
		entries += len(es)
		return fn(key, es)
	})
	x.obs.end("scan", "", core.TraceIDFrom(ctx), 0, from, to, entries, start, before, err)
	return err
}

// Stats reports resource usage.
type Stats struct {
	// Scheme is the maintenance algorithm's name.
	Scheme string
	// HardWindow mirrors Index.HardWindow.
	HardWindow bool
	// WindowFrom and WindowTo delimit the required window.
	WindowFrom, WindowTo int
	// DaysIndexed counts all indexed days, including soft-window extras.
	DaysIndexed int
	// ConstituentBytes is the storage of the queryable constituents.
	ConstituentBytes int64
	// TempBytes is the storage of temporary indexes.
	TempBytes int64
	// Constituents describes each constituent index.
	Constituents []ConstituentStats
	// Store aggregates the block stores' counters (for a single-store
	// index, exactly that store's snapshot). Summing PeakBlocks across
	// stores upper-bounds the true simultaneous peak.
	Store simdisk.Stats
	// PerStore holds each store's own snapshot, in store order.
	PerStore []simdisk.Stats
}

// ConstituentStats describes one constituent index of the wave.
type ConstituentStats struct {
	// Days is the constituent's time-set, ascending.
	Days []int
	// Bytes is its allocated storage.
	Bytes int64
}

// Stats returns a snapshot of the index's resource usage. It waits for
// any in-flight transition: constituent membership and temp sizes are
// scheme state the maintenance goroutine mutates, so Stats snapshots a
// quiescent scheme rather than racing it.
func (x *Index) Stats() Stats {
	x.mu.Lock()
	from, to := x.cfg.FirstDay, x.nextDay-1
	if x.ready {
		from, to = x.winFrom, x.winTo
	}
	var cons []ConstituentStats
	for _, c := range x.scheme.Wave().Snapshot() {
		if c != nil {
			cons = append(cons, ConstituentStats{Days: c.Days(), Bytes: c.SizeBytes()})
		}
	}
	st := Stats{
		Constituents:     cons,
		Scheme:           x.scheme.Name(),
		HardWindow:       x.scheme.HardWindow(),
		WindowFrom:       from,
		WindowTo:         to,
		DaysIndexed:      x.scheme.Wave().Length(),
		ConstituentBytes: x.scheme.Wave().SizeBytes(),
		TempBytes:        x.scheme.TempSizeBytes(),
	}
	x.mu.Unlock()
	st.PerStore = make([]simdisk.Stats, len(x.stores))
	for i, s := range x.stores {
		st.PerStore[i] = s.Stats()
	}
	st.Store = simdisk.SumStats(st.PerStore...)
	return st
}

// Stores exposes the index's underlying block stores, in store order.
// It exists for fault-injection harnesses: arming a store's simdisk
// fault plans is how chaos tests make this index's queries or syncs
// fail on demand (the same idiom wave already leans on via
// Stats.PerStore and the CauseStats alias). The slice is owned by the
// index — callers must not close or reorder the stores.
func (x *Index) Stores() []*simdisk.Store { return x.stores }

// Close releases all storage held by the index. Days still queued by
// AddDayAsync are applied first (Close drains the pipeline), though any
// error they hit is reported by a pending or later Flush, not by Close.
func (x *Index) Close() error {
	// Stop the ingestion goroutine before taking x.mu: it applies days
	// via AddDay, which needs the lock.
	x.ing.close()
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	x.closed = true
	if x.obs.mobs != nil {
		x.obs.mobs.Flush() // close the last transition's post-work timing
	}
	err := x.scheme.Close()
	for _, s := range x.stores {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
