package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"waveindex/internal/index"
)

// Searcher is the query surface of data-bearing constituents.
type Searcher interface {
	Probe(key string, t1, t2 int) ([]index.Entry, error)
	// ScanGroups visits, in ascending key order, each key's entries in
	// [t1, t2] as one non-empty group, stopping early when fn returns
	// false. fn may retain the group slice.
	ScanGroups(t1, t2 int, fn func(key string, es []index.Entry) bool) error
}

// MultiSearcher is implemented by constituents that can answer a batch of
// probes in one pass, amortising directory lookups and seeks.
type MultiSearcher interface {
	// MultiProbe returns per-key entry lists aligned with keys (nil for
	// absent keys), each sorted by (day, record, aux). keys must be
	// distinct.
	MultiProbe(keys []string, t1, t2 int) ([][]index.Entry, error)
}

// DayBounder is implemented by constituents that can report the bounds of
// their time-set in O(1).
type DayBounder interface {
	DayBounds() (min, max int, ok bool)
}

// Wave is the queryable wave index Theta: the current set of constituent
// indexes. Queries take a snapshot of the constituents and run against it
// without holding the wave lock, so maintenance can publish new
// constituents while long scans are in flight; a superseded constituent
// is retired — its storage release deferred until no query still holds a
// snapshot referencing it. In-place updates, which mutate a live index,
// still exclude queries via a dedicated query lock (§2.1).
type Wave struct {
	// mu guards the constituent slots and the retirement bookkeeping; it
	// is held only for short critical sections, never across IO.
	mu sync.RWMutex
	// qmu is held in read mode for the whole of every query and in write
	// mode by in-place updates, which are the only maintenance operations
	// that mutate an index queries may be reading. Shadow publishing does
	// not touch qmu, so it never waits on a long scan. Lock order:
	// qmu before mu.
	qmu     sync.RWMutex
	cons    []Constituent
	broken  []bool // slots whose constituent is torn or missing; queries skip them
	eng     *Engine
	readers int           // queries holding a snapshot
	retired []Constituent // superseded while readers > 0; dropped later

	// gens stamps each slot with a monotonic constituent generation:
	// genSeq advances and the slot's generation moves on every event that
	// changes what the slot answers — publish, retire-swap, in-place
	// mutation, broken marking. Between moves a constituent is immutable,
	// so (generation, query) identifies a result forever; the result
	// cache keys on it and never needs locking against maintenance.
	gens   []uint64
	genSeq uint64
	rc     *ResultCache

	// qm and tracer are the engine's observability hooks, settable via
	// SetInstrumentation. qm is held by value: the zero value's nil
	// handles are no-ops, so uninstrumented queries record nothing.
	qm     QueryMetrics
	tracer Tracer
}

// NewWave returns a wave with n empty slots and a query engine sized to
// n — one potential reader per constituent.
func NewWave(n int) *Wave {
	return &Wave{
		cons:   make([]Constituent, n),
		broken: make([]bool, n),
		gens:   make([]uint64, n),
		eng:    NewEngine(n),
	}
}

// SetResultCache installs (or removes, with nil) the per-constituent
// result cache consulted by probe and aggregate queries.
func (w *Wave) SetResultCache(rc *ResultCache) {
	w.mu.Lock()
	w.rc = rc
	w.mu.Unlock()
}

// ResultCacheStats reports the result cache's counters (zero when no
// cache is installed).
func (w *Wave) ResultCacheStats() ResultCacheStats {
	w.mu.RLock()
	rc := w.rc
	w.mu.RUnlock()
	return rc.Stats()
}

// Generations returns the current per-slot constituent generations.
func (w *Wave) Generations() []uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]uint64(nil), w.gens...)
}

// bumpGenLocked advances slot i's generation and purges results cached
// under the superseded one. Caller holds w.mu (rc's lock is a leaf).
func (w *Wave) bumpGenLocked(i int) {
	old := w.gens[i]
	w.genSeq++
	w.gens[i] = w.genSeq
	if old != 0 {
		w.rc.InvalidateGens(old)
	}
}

// SetParallelism resizes the query engine's pool. In-flight queries keep
// the pool they started with.
func (w *Wave) SetParallelism(p int) {
	w.mu.Lock()
	w.eng = NewEngine(p)
	w.mu.Unlock()
}

// Parallelism returns the query engine's concurrency bound.
func (w *Wave) Parallelism() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.eng.Parallelism()
}

// N returns the number of constituent slots.
func (w *Wave) N() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.cons)
}

// Get returns the constituent in slot i (may be nil before Start).
func (w *Wave) Get(i int) Constituent {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.cons[i]
}

// Set publishes c in slot i, clearing any broken mark: a freshly
// published constituent is whole.
func (w *Wave) Set(i int, c Constituent) {
	w.mu.Lock()
	w.cons[i] = c
	w.broken[i] = false
	w.bumpGenLocked(i)
	w.mu.Unlock()
}

// MarkBroken flags slot i as broken after a failed mutation: queries skip
// the slot (degrading to the surviving constituents instead of erroring
// or panicking on torn state) and Degraded reports true until a new
// constituent is published into the slot.
func (w *Wave) MarkBroken(i int) {
	w.mu.Lock()
	w.broken[i] = true
	w.bumpGenLocked(i)
	w.mu.Unlock()
}

// Degraded reports whether any slot is broken, i.e. queries are being
// served from a subset of the wave.
func (w *Wave) Degraded() bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, b := range w.broken {
		if b {
			return true
		}
	}
	return false
}

// BrokenSlots returns the indices of broken slots.
func (w *Wave) BrokenSlots() []int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var out []int
	for i, b := range w.broken {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// Snapshot returns the current constituents.
func (w *Wave) Snapshot() []Constituent {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]Constituent(nil), w.cons...)
}

// beginQuery registers a query: it pins the current constituents so
// retirement defers their release, and returns them — with their
// generations, the engine to run on, and the result cache — for the
// query to use. Every beginQuery must be paired with endQuery.
func (w *Wave) beginQuery() ([]Constituent, []uint64, *Engine, *ResultCache) {
	w.qmu.RLock()
	w.mu.Lock()
	cons := make([]Constituent, len(w.cons))
	gens := make([]uint64, len(w.cons))
	for i, c := range w.cons {
		if !w.broken[i] {
			cons[i] = c
			gens[i] = w.gens[i]
		}
	}
	eng := w.eng
	rc := w.rc
	w.readers++
	w.mu.Unlock()
	return cons, gens, eng, rc
}

func (w *Wave) endQuery() {
	w.mu.Lock()
	w.readers--
	w.mu.Unlock()
	w.qmu.RUnlock()
}

// Retire disposes of a superseded constituent. With no query in flight it
// is dropped immediately (together with any previously deferred ones);
// otherwise the drop is deferred to a later Retire or DrainRetired on the
// maintenance goroutine, so observers never see drops from query
// goroutines. A nil c just drains.
func (w *Wave) Retire(c Constituent) error {
	w.mu.Lock()
	if w.readers > 0 {
		if c != nil {
			w.retired = append(w.retired, c)
		}
		w.mu.Unlock()
		return nil
	}
	pending := w.retired
	w.retired = nil
	w.mu.Unlock()
	var first error
	for _, old := range pending {
		if err := old.Drop(); err != nil && first == nil {
			first = err
		}
	}
	if c != nil {
		if err := c.Drop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetRetire atomically replaces slot i's constituent and retires the
// previous occupant.
func (w *Wave) SetRetire(i int, c Constituent) error {
	w.mu.Lock()
	old := w.cons[i]
	w.cons[i] = c
	w.broken[i] = false
	w.bumpGenLocked(i)
	w.mu.Unlock()
	if old == nil || old == c {
		return nil
	}
	return w.Retire(old)
}

// DrainRetired drops every deferred-retired constituent, provided no
// query is in flight; with active readers the retirees stay deferred
// (they are dropped by the next Retire or DrainRetired that finds the
// wave quiescent). Used on the shutdown path.
func (w *Wave) DrainRetired() error {
	return w.Retire(nil)
}

// Locked runs fn under the wave's query-exclusion and slot locks; used by
// in-place updating, which mutates a live index and therefore must
// exclude queries.
func (w *Wave) Locked(fn func() error) error {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return fn()
}

// MutateLocked is Locked for mutations of slot's live constituent: the
// slot's generation is advanced inside the critical section, before fn
// runs, so no query — they are all excluded until the locks release —
// can ever pair the old generation with the mutated contents. The bump
// happens whether fn succeeds or not: a failed mutation may have torn
// the index, and results cached under the old generation describe a
// constituent that no longer exists.
func (w *Wave) MutateLocked(slot int, fn func() error) error {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bumpGenLocked(slot)
	return fn()
}

// Days returns the union of the constituents' time-sets, ascending.
func (w *Wave) Days() []int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	seen := map[int]struct{}{}
	for _, c := range w.cons {
		if c == nil {
			continue
		}
		for _, d := range c.Days() {
			seen[d] = struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Length returns the total number of days currently indexed — the
// paper's length measure (Appendix B). For soft-window schemes this can
// exceed W.
func (w *Wave) Length() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	n := 0
	for _, c := range w.cons {
		if c != nil {
			n += c.NumDays()
		}
	}
	return n
}

// SizeBytes returns the total storage of the constituents.
func (w *Wave) SizeBytes() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var n int64
	for _, c := range w.cons {
		if c != nil {
			n += c.SizeBytes()
		}
	}
	return n
}

// intersects reports whether the constituent's time-set meets [t1, t2].
// Constituents exposing cached day bounds decide the common cases — range
// disjoint from the bounds, or bounds contained in the range — in O(1);
// only a range falling inside a gap of a non-contiguous time-set pays the
// O(days) membership walk.
func intersects(c Constituent, t1, t2 int) bool {
	if b, ok := c.(DayBounder); ok {
		min, max, nonEmpty := b.DayBounds()
		if !nonEmpty || max < t1 || min > t2 {
			return false
		}
		if min >= t1 || max <= t2 {
			return true
		}
	}
	for _, d := range c.Days() {
		if d >= t1 && d <= t2 {
			return true
		}
	}
	return false
}

// searchTargets collects the qualifying constituents of a snapshot with
// their wave slots (for per-constituent trace attribution).
func searchTargets(cons []Constituent, t1, t2 int) ([]Searcher, []int, error) {
	var out []Searcher
	var slots []int
	for i, c := range cons {
		if c == nil || !intersects(c, t1, t2) {
			continue
		}
		s, ok := c.(Searcher)
		if !ok {
			return nil, nil, fmt.Errorf("core: constituent %T is not searchable", c)
		}
		out = append(out, s)
		slots = append(slots, i)
	}
	return out, slots, nil
}

// clampRange narrows [t1, t2] to the constituent's day bounds. Entries
// only exist inside the bounds, so the clamped probe returns identical
// results — but the clamped range is stable while the rest of the wave
// rolls, so a "whole window" query re-hits the cache on constituents the
// transition did not touch.
func clampRange(c Constituent, t1, t2 int) (int, int) {
	if b, ok := c.(DayBounder); ok {
		if lo, hi, nonEmpty := b.DayBounds(); nonEmpty {
			if t1 < lo {
				t1 = lo
			}
			if t2 > hi {
				t2 = hi
			}
		}
	}
	return t1, t2
}

// workersFor reports how many pool workers a query over n targets can
// actually use.
func workersFor(eng *Engine, n int) int64 {
	if p := eng.Parallelism(); p < n {
		return int64(p)
	}
	return int64(n)
}

// TimedIndexProbe retrieves the entries for search value key inserted
// between day t1 and t2 inclusive, probing only constituents whose
// clusters intersect the range and filtering entries by timestamp (§2.2).
// Per-constituent results arrive sorted, so they are merged; with at most
// one qualifying constituent its result is returned as is.
func (w *Wave) TimedIndexProbe(key string, t1, t2 int) ([]index.Entry, error) {
	return w.TimedIndexProbeCtx(context.Background(), key, t1, t2)
}

// TimedIndexProbeCtx is TimedIndexProbe with cancellation: the probe
// stops between constituents once ctx is done and returns ctx's error.
func (w *Wave) TimedIndexProbeCtx(ctx context.Context, key string, t1, t2 int) ([]index.Entry, error) {
	cons, gens, _, rc := w.beginQuery()
	defer w.endQuery()
	qm, tr := w.instrumentation()
	tid := TraceIDFrom(ctx)
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return nil, err
	}
	qm.Constituents.Add(int64(len(targets)))
	qm.Workers.Observe(1)
	lists := make([][]index.Entry, 0, len(targets))
	for i, s := range targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		es, err := probeOne(s, cons[slots[i]], gens[slots[i]], rc, key, t1, t2, slots[i], tr, tid)
		if err != nil {
			return nil, err
		}
		if len(es) > 0 {
			lists = append(lists, es)
		}
	}
	return mergeEntryLists(lists), nil
}

// probeOne probes one constituent, going through the result cache when
// one is installed. Cached probes use the generation-stable clamped
// range; uncached probes keep the caller's range verbatim so a cache-off
// wave's behaviour (including its simulated disk cost) is unchanged.
func probeOne(s Searcher, c Constituent, gen uint64, rc *ResultCache, key string, t1, t2, slot int, tr Tracer, tid string) ([]index.Entry, error) {
	if rc == nil {
		start := time.Now()
		es, err := s.Probe(key, t1, t2)
		emit(tr, TraceEvent{
			Kind: "probe.constituent", Start: start, Duration: time.Since(start),
			Key: key, From: t1, To: t2, Constituent: slot, Entries: len(es), TraceID: tid, Err: err,
		})
		return es, err
	}
	ct1, ct2 := clampRange(c, t1, t2)
	if es, ok := rc.GetProbe(gen, key, ct1, ct2); ok {
		return es, nil
	}
	start := time.Now()
	es, err := s.Probe(key, ct1, ct2)
	emit(tr, TraceEvent{
		Kind: "probe.constituent", Start: start, Duration: time.Since(start),
		Key: key, From: ct1, To: ct2, Constituent: slot, Entries: len(es), TraceID: tid, Err: err,
	})
	if err != nil {
		return nil, err
	}
	rc.PutProbe(gen, key, ct1, ct2, es)
	return es, nil
}

// IndexProbe retrieves all entries for key across the whole wave,
// including any soft-window days older than the required window.
func (w *Wave) IndexProbe(key string) ([]index.Entry, error) {
	return w.TimedIndexProbe(key, minDay, maxDay)
}

// ParallelTimedIndexProbe is TimedIndexProbe with the per-constituent
// probes issued concurrently on the wave's engine — the multi-disk
// parallelism the paper's §8 identifies as a wave-index advantage over
// monolithic indexes. Results are byte-identical to TimedIndexProbe's.
func (w *Wave) ParallelTimedIndexProbe(key string, t1, t2 int) ([]index.Entry, error) {
	return w.ParallelTimedIndexProbeCtx(context.Background(), key, t1, t2)
}

// ParallelTimedIndexProbeCtx is ParallelTimedIndexProbe with
// cancellation: once ctx is done no further constituent probe starts,
// workers blocked on the pool stop waiting, and ctx's error is returned.
func (w *Wave) ParallelTimedIndexProbeCtx(ctx context.Context, key string, t1, t2 int) ([]index.Entry, error) {
	cons, gens, eng, rc := w.beginQuery()
	defer w.endQuery()
	qm, tr := w.instrumentation()
	tid := TraceIDFrom(ctx)
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return nil, err
	}
	qm.Constituents.Add(int64(len(targets)))
	qm.Workers.Observe(workersFor(eng, len(targets)))
	lists := make([][]index.Entry, len(targets))
	err = eng.RunCtx(ctx, len(targets), func(i int) error {
		es, err := probeOne(targets[i], cons[slots[i]], gens[slots[i]], rc, key, t1, t2, slots[i], tr, tid)
		lists[i] = es
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeEntryLists(lists), nil
}

// MultiProbe retrieves the entries of several search values at once,
// keyed by search value (keys without entries are absent). The key batch
// is deduplicated and sorted, each qualifying constituent answers the
// whole batch in one pass (amortising directory lookups and seeks; see
// index.ProbeMulti), constituents run concurrently on the wave's engine,
// and per-key results are merged like TimedIndexProbe's.
func (w *Wave) MultiProbe(keys []string, t1, t2 int) (map[string][]index.Entry, error) {
	return w.MultiProbeCtx(context.Background(), keys, t1, t2)
}

// MultiProbeCtx is MultiProbe with cancellation: once ctx is done no
// further constituent batch starts and ctx's error is returned.
func (w *Wave) MultiProbeCtx(ctx context.Context, keys []string, t1, t2 int) (map[string][]index.Entry, error) {
	uniq := append([]string(nil), keys...)
	sort.Strings(uniq)
	n := 0
	for i, k := range uniq {
		if i == 0 || uniq[n-1] != k {
			uniq[n] = k
			n++
		}
	}
	uniq = uniq[:n]

	cons, gens, eng, rc := w.beginQuery()
	defer w.endQuery()
	qm, tr := w.instrumentation()
	tid := TraceIDFrom(ctx)
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]index.Entry, len(uniq))
	if len(uniq) == 0 || len(targets) == 0 {
		return out, nil
	}
	qm.Constituents.Add(int64(len(targets)))
	qm.Workers.Observe(workersFor(eng, len(targets)))
	per := make([][][]index.Entry, len(targets))
	err = eng.RunCtx(ctx, len(targets), func(i int) error {
		ct1, ct2 := t1, t2
		gen := gens[slots[i]]
		r := make([][]index.Entry, len(uniq))
		// With a result cache, serve per-key hits from it and batch-probe
		// only the missing keys (a subsequence of uniq, so still sorted
		// and distinct as MultiSearcher requires).
		missing := uniq
		missIdx := make([]int, 0, len(uniq))
		if rc != nil {
			ct1, ct2 = clampRange(cons[slots[i]], t1, t2)
			missing = make([]string, 0, len(uniq))
			for j, k := range uniq {
				if es, ok := rc.GetProbe(gen, k, ct1, ct2); ok {
					r[j] = es
					continue
				}
				missing = append(missing, k)
				missIdx = append(missIdx, j)
			}
		} else {
			for j := range uniq {
				missIdx = append(missIdx, j)
			}
		}
		start := time.Now()
		err := func() error {
			if len(missing) == 0 {
				return nil
			}
			if ms, ok := targets[i].(MultiSearcher); ok {
				res, err := ms.MultiProbe(missing, ct1, ct2)
				if err != nil {
					return err
				}
				for jj, es := range res {
					r[missIdx[jj]] = es
					rc.PutProbe(gen, missing[jj], ct1, ct2, es)
				}
				return nil
			}
			for jj, k := range missing {
				es, err := targets[i].Probe(k, ct1, ct2)
				if err != nil {
					return err
				}
				r[missIdx[jj]] = es
				rc.PutProbe(gen, k, ct1, ct2, es)
			}
			return nil
		}()
		if err == nil {
			per[i] = r
		}
		emit(tr, TraceEvent{
			Kind: "mprobe.constituent", Start: start, Duration: time.Since(start),
			Keys: len(missing), From: ct1, To: ct2, Constituent: slots[i], TraceID: tid, Err: err,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	lists := make([][]index.Entry, 0, len(targets))
	for j, k := range uniq {
		lists = lists[:0]
		for i := range targets {
			if es := per[i][j]; len(es) > 0 {
				lists = append(lists, es)
			}
		}
		if merged := mergeEntryLists(lists); len(merged) > 0 {
			out[k] = merged
		}
	}
	return out, nil
}

// TimedSegmentScan visits every entry inserted between day t1 and t2 in
// ascending key order across the whole wave — qualifying constituents
// scan concurrently on the wave's engine and their key-ordered streams
// are heap-merged, with entries of one key visited in wave slot order.
// fn runs on the caller's goroutine; returning false stops the scan.
func (w *Wave) TimedSegmentScan(t1, t2 int, fn func(key string, e index.Entry) bool) error {
	return w.TimedSegmentScanCtx(context.Background(), t1, t2, fn)
}

// TimedSegmentScanCtx is TimedSegmentScan with cancellation: it is
// SegmentScanGroupsCtx, one entry at a time.
func (w *Wave) TimedSegmentScanCtx(ctx context.Context, t1, t2 int, fn func(key string, e index.Entry) bool) error {
	return w.SegmentScanGroupsCtx(ctx, t1, t2, func(key string, es []index.Entry) bool {
		for _, e := range es {
			if !fn(key, e) {
				return false
			}
		}
		return true
	})
}

// SegmentScanGroupsCtx is the wave's TimedSegmentScan delivered one key
// group at a time: fn receives each qualifying constituent's non-empty
// run of a key's entries in [t1, t2], groups in ascending key order and,
// within a key, in wave slot order — so a key held by several
// constituents arrives as several consecutive groups. fn runs on the
// caller's goroutine, may retain the group slice, and stops the scan by
// returning false. Cancellation is polled once per group: once ctx is
// done the producers abort at their next group, the merge stops, and
// ctx's error is returned. All producer goroutines are joined before
// returning, so no pool worker leaks.
func (w *Wave) SegmentScanGroupsCtx(ctx context.Context, t1, t2 int, fn func(key string, es []index.Entry) bool) error {
	cons, _, eng, _ := w.beginQuery()
	defer w.endQuery()
	qm, tr := w.instrumentation()
	tid := TraceIDFrom(ctx)
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return err
	}
	qm.Constituents.Add(int64(len(targets)))
	switch len(targets) {
	case 0:
		return ctx.Err()
	case 1:
		// One stream: the merge would reproduce the scan verbatim.
		qm.Workers.Observe(1)
		qm.MergeDepth.Observe(1)
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		stopped := false
		entries := 0
		cancelled := ctx.Done()
		err = targets[0].ScanGroups(t1, t2, func(k string, es []index.Entry) bool {
			select {
			case <-cancelled:
				return false
			default:
			}
			entries += len(es)
			if !fn(k, es) {
				stopped = true
				return false
			}
			return true
		})
		emit(tr, TraceEvent{
			Kind: "scan.constituent", Start: start, Duration: time.Since(start),
			From: t1, To: t2, Constituent: slots[0], Entries: entries, TraceID: tid, Err: err,
		})
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if stopped {
			qm.EarlyStops.Inc()
		}
		return err
	}
	qm.Workers.Observe(workersFor(eng, len(targets)))
	qm.MergeDepth.Observe(int64(len(targets)))
	done := make(chan struct{})
	streams := make([]*scanStream, len(targets))
	var wg sync.WaitGroup
	for i, s := range targets {
		st := &scanStream{ch: make(chan keyGroup, scanStreamBuf), slot: slots[i]}
		streams[i] = st
		wg.Add(1)
		go func(s Searcher, st *scanStream) {
			defer wg.Done()
			produceScan(ctx, eng, s, t1, t2, st, done, tr)
		}(s, st)
	}
	stopped := consumeScanStreams(ctx, streams, fn)
	close(done)
	for _, st := range streams {
		for range st.ch {
		}
	}
	wg.Wait()
	if stopped {
		qm.EarlyStops.Inc()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, st := range streams {
		if st.err != nil {
			return st.err
		}
	}
	return nil
}

// SegmentScan visits every entry in the wave (soft-window extras
// included).
func (w *Wave) SegmentScan(fn func(key string, e index.Entry) bool) error {
	return w.TimedSegmentScan(minDay, maxDay, fn)
}

const (
	minDay = -1 << 30
	maxDay = 1 << 30
)

// aggPlan is the shared preamble of the memoized aggregates: the pinned
// snapshot's qualifying targets plus everything the per-constituent
// workers need. It is only built when a result cache is installed;
// callers without one fall back to the scan-derived (byte-identical)
// aggregate path.
type aggPlan struct {
	targets []Searcher
	cons    []Constituent // aligned with targets
	gens    []uint64      // aligned with targets
	eng     *Engine
	rc      *ResultCache
}

// aggBegin pins a query snapshot and builds the aggregate plan. The
// returned end func must be called exactly once (it releases the
// snapshot); ok is false when no result cache is installed.
func (w *Wave) aggBegin(t1, t2 int) (plan aggPlan, end func(), ok bool, err error) {
	cons, gens, eng, rc := w.beginQuery()
	end = w.endQuery
	if rc == nil {
		return aggPlan{}, end, false, nil
	}
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return aggPlan{}, end, true, err
	}
	qm, _ := w.instrumentation()
	qm.Constituents.Add(int64(len(targets)))
	qm.Workers.Observe(workersFor(eng, len(targets)))
	plan = aggPlan{targets: targets, eng: eng, rc: rc}
	plan.cons = make([]Constituent, len(targets))
	plan.gens = make([]uint64, len(targets))
	for i, slot := range slots {
		plan.cons[i] = cons[slot]
		plan.gens[i] = gens[slot]
	}
	return plan, end, true, nil
}

// AggCountCtx counts the entries in [t1, t2], summing per-constituent
// counts memoized in the result cache. ok is false when no cache is
// installed (callers should then derive the count from a scan).
func (w *Wave) AggCountCtx(ctx context.Context, t1, t2 int) (n int, ok bool, err error) {
	plan, end, ok, err := w.aggBegin(t1, t2)
	defer end()
	if !ok || err != nil {
		return 0, ok, err
	}
	counts := make([]int, len(plan.targets))
	err = plan.eng.RunCtx(ctx, len(plan.targets), func(i int) error {
		ct1, ct2 := clampRange(plan.cons[i], t1, t2)
		if v, hit := plan.rc.GetCount(plan.gens[i], ct1, ct2); hit {
			counts[i] = v
			return nil
		}
		v := 0
		if err := plan.targets[i].ScanGroups(ct1, ct2, func(_ string, es []index.Entry) bool { v += len(es); return true }); err != nil {
			return err
		}
		plan.rc.PutCount(plan.gens[i], ct1, ct2, v)
		counts[i] = v
		return nil
	})
	if err != nil {
		return 0, true, err
	}
	for _, v := range counts {
		n += v
	}
	return n, true, nil
}

// AggDayCountsCtx returns per-day entry counts over [t1, t2], summing
// per-constituent day histograms memoized in the result cache. The
// returned map is freshly allocated. ok is false when no cache is
// installed.
func (w *Wave) AggDayCountsCtx(ctx context.Context, t1, t2 int) (out map[int]int, ok bool, err error) {
	plan, end, ok, err := w.aggBegin(t1, t2)
	defer end()
	if !ok || err != nil {
		return nil, ok, err
	}
	per := make([]map[int]int, len(plan.targets))
	err = plan.eng.RunCtx(ctx, len(plan.targets), func(i int) error {
		ct1, ct2 := clampRange(plan.cons[i], t1, t2)
		if m, hit := plan.rc.GetDayCounts(plan.gens[i], ct1, ct2); hit {
			per[i] = m
			return nil
		}
		m := make(map[int]int)
		if err := plan.targets[i].ScanGroups(ct1, ct2, func(_ string, es []index.Entry) bool {
			for _, e := range es {
				m[int(e.Day)]++
			}
			return true
		}); err != nil {
			return err
		}
		plan.rc.PutDayCounts(plan.gens[i], ct1, ct2, m)
		per[i] = m
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	out = make(map[int]int)
	for _, m := range per {
		for d, v := range m {
			out[d] += v
		}
	}
	return out, true, nil
}

// AggKeyCountsCtx returns per-key entry counts over [t1, t2], summing
// per-constituent key frequency maps memoized in the result cache. The
// returned map is freshly allocated. ok is false when no cache is
// installed.
func (w *Wave) AggKeyCountsCtx(ctx context.Context, t1, t2 int) (out map[string]int, ok bool, err error) {
	plan, end, ok, err := w.aggBegin(t1, t2)
	defer end()
	if !ok || err != nil {
		return nil, ok, err
	}
	per := make([]map[string]int, len(plan.targets))
	err = plan.eng.RunCtx(ctx, len(plan.targets), func(i int) error {
		ct1, ct2 := clampRange(plan.cons[i], t1, t2)
		if m, hit := plan.rc.GetKeyCounts(plan.gens[i], ct1, ct2); hit {
			per[i] = m
			return nil
		}
		m := make(map[string]int)
		if err := plan.targets[i].ScanGroups(ct1, ct2, func(k string, es []index.Entry) bool {
			m[k] += len(es)
			return true
		}); err != nil {
			return err
		}
		plan.rc.PutKeyCounts(plan.gens[i], ct1, ct2, m)
		per[i] = m
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	out = make(map[string]int)
	for _, m := range per {
		for k, v := range m {
			out[k] += v
		}
	}
	return out, true, nil
}

// sortEntries orders probe results by (day, record) so results are
// deterministic regardless of how days are clustered across constituents.
func sortEntries(es []index.Entry) { index.SortEntries(es) }
