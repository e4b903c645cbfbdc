package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waveindex/internal/index"
	"waveindex/internal/metrics"
	"waveindex/internal/simdisk"
)

// recordingTracer collects trace events; safe for concurrent use.
type recordingTracer struct {
	mu  sync.Mutex
	evs []TraceEvent
}

func (r *recordingTracer) TraceEvent(ev TraceEvent) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func (r *recordingTracer) byKind(kind string) []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TraceEvent
	for _, ev := range r.evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func TestEngineRunCtxCanceled(t *testing.T) {
	eng := NewEngine(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Pre-canceled: no task runs, on both the inline and parallel paths.
	for _, n := range []int{1, 8} {
		ran := atomic.Int32{}
		err := eng.RunCtx(ctx, n, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx(n=%d) = %v, want context.Canceled", n, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("RunCtx(n=%d) ran %d tasks on a canceled context", n, ran.Load())
		}
	}
}

func TestEngineRunCtxCancelMidRun(t *testing.T) {
	eng := NewEngine(1) // one slot: tasks serialize, later ones wait
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	ran := atomic.Int32{}
	done := make(chan error, 1)
	go func() {
		done <- eng.RunCtx(ctx, 4, func(i int) error {
			ran.Add(1)
			if i == 0 {
				close(started)
				<-release
			}
			return nil
		})
	}()
	<-started
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 4 {
		t.Fatalf("all %d tasks ran despite mid-run cancellation", got)
	}
	// The pool must be fully released: both slots acquirable.
	eng.acquire()
	eng.release()
}

// TestQueryCtxCancellation cancels each query entry point and checks it
// reports context.Canceled without deadlocking or leaking pool workers
// (the latter verified by a follow-up query and the -race harness).
func TestQueryCtxCancellation(t *testing.T) {
	s, _, _ := newDataScheme(t, KindDEL, 10, 4, SimpleShadow, index.HashDir)
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	wave := s.Wave()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := wave.ParallelTimedIndexProbeCtx(canceled, "alpha", 1, 1<<29); !errors.Is(err, context.Canceled) {
		t.Fatalf("ParallelTimedIndexProbeCtx = %v, want context.Canceled", err)
	}
	if _, err := wave.TimedIndexProbeCtx(canceled, "alpha", 1, 1<<29); !errors.Is(err, context.Canceled) {
		t.Fatalf("TimedIndexProbeCtx = %v, want context.Canceled", err)
	}
	if _, err := wave.MultiProbeCtx(canceled, []string{"alpha", "beta"}, 1, 1<<29); !errors.Is(err, context.Canceled) {
		t.Fatalf("MultiProbeCtx = %v, want context.Canceled", err)
	}
	if err := wave.TimedSegmentScanCtx(canceled, 1, 1<<29, func(string, index.Entry) bool {
		t.Error("scan callback ran on a canceled context")
		return true
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("TimedSegmentScanCtx = %v, want context.Canceled", err)
	}

	// Cancel mid-scan: the merge consumer notices between key groups, the
	// producers wind down, and the error is the ctx's.
	ctx, cancelMid := context.WithCancel(context.Background())
	seen := 0
	err := wave.TimedSegmentScanCtx(ctx, 1, 1<<29, func(string, index.Entry) bool {
		seen++
		if seen == 3 {
			cancelMid()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel: err = %v, want context.Canceled", err)
	}

	// Cancel mid-scan on a range inside one constituent: the single-stream
	// path polls once per key group, so the scan ends at the next group —
	// the per-entry wrapper finishes the current group, no more.
	lo, groups := singleTargetDay(t, wave)
	first := 0
	ctx, cancelOne := context.WithCancel(context.Background())
	delivered := 0
	err = wave.SegmentScanGroupsCtx(ctx, lo, lo, func(_ string, es []index.Entry) bool {
		delivered++
		first = len(es)
		cancelOne()
		return true
	})
	if !errors.Is(err, context.Canceled) || delivered != 1 {
		t.Fatalf("single-target group cancel: err = %v after %d of %d groups, want context.Canceled after 1", err, delivered, groups)
	}
	ctx, cancelOne = context.WithCancel(context.Background())
	seen = 0
	err = wave.TimedSegmentScanCtx(ctx, lo, lo, func(string, index.Entry) bool {
		seen++
		cancelOne()
		return true
	})
	if !errors.Is(err, context.Canceled) || seen != first {
		t.Fatalf("single-target entry cancel: err = %v after %d entries, want context.Canceled after the first group's %d", err, seen, first)
	}

	// The pool must still work after all those aborts.
	live, err := wave.ParallelTimedIndexProbe("alpha", 1, 1<<29)
	if err != nil {
		t.Fatalf("probe after cancellations: %v", err)
	}
	seq, err := wave.TimedIndexProbe("alpha", 1, 1<<29)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, seq) {
		t.Fatal("post-cancellation probe diverged from sequential")
	}
}

// singleTargetDay returns a window day held by exactly one constituent
// whose entries span at least two key groups, with that group count.
func singleTargetDay(t *testing.T, w *Wave) (day, groups int) {
	t.Helper()
	for _, c := range w.Snapshot() {
		if c == nil {
			continue
		}
		for _, d := range c.Days() {
			targets, _, err := searchTargets(w.Snapshot(), d, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(targets) != 1 {
				continue
			}
			n := 0
			if err := w.SegmentScanGroupsCtx(context.Background(), d, d, func(string, []index.Entry) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if n >= 2 {
				return d, n
			}
		}
	}
	t.Fatal("no day held by one constituent spans two key groups")
	return 0, 0
}

// TestQueryInstrumentation wires QueryMetrics and a tracer into a wave
// and checks queries feed them.
func TestQueryInstrumentation(t *testing.T) {
	s, _, _ := newDataScheme(t, KindDEL, 10, 4, SimpleShadow, index.HashDir)
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	wave := s.Wave()
	reg := metrics.New()
	qm := QueryMetrics{
		Constituents: reg.Counter("query_constituents_total"),
		Workers:      reg.Histogram("query_workers"),
		MergeDepth:   reg.Histogram("scan_merge_depth"),
		EarlyStops:   reg.Counter("scan_early_stop_total"),
	}
	tr := &recordingTracer{}
	wave.SetInstrumentation(&qm, tr)

	if _, err := wave.ParallelTimedIndexProbe("alpha", 1, 1<<29); err != nil {
		t.Fatal(err)
	}
	if _, err := wave.MultiProbe([]string{"alpha", "beta"}, 1, 1<<29); err != nil {
		t.Fatal(err)
	}
	stops := 0
	if err := wave.TimedSegmentScan(1, 1<<29, func(string, index.Entry) bool {
		stops++
		return stops < 2
	}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counter("query_constituents_total") == 0 {
		t.Error("constituents counter never incremented")
	}
	if snap.Histogram("query_workers").Count == 0 {
		t.Error("workers histogram never observed")
	}
	if snap.Counter("scan_early_stop_total") != 1 {
		t.Errorf("early stops = %d, want 1", snap.Counter("scan_early_stop_total"))
	}
	if evs := tr.byKind("probe.constituent"); len(evs) == 0 {
		t.Error("no probe.constituent spans")
	} else {
		for _, ev := range evs {
			if ev.Key != "alpha" || ev.Constituent < 0 {
				t.Errorf("bad probe span: %+v", ev)
			}
		}
	}
	if evs := tr.byKind("mprobe.constituent"); len(evs) == 0 {
		t.Error("no mprobe.constituent spans")
	}
	if evs := tr.byKind("scan.constituent"); len(evs) == 0 {
		t.Error("no scan.constituent spans")
	}

	// Clearing instrumentation stops recording.
	wave.SetInstrumentation(nil, nil)
	before := reg.Snapshot().Counter("query_constituents_total")
	if _, err := wave.ParallelTimedIndexProbe("alpha", 1, 1<<29); err != nil {
		t.Fatal(err)
	}
	if after := reg.Snapshot().Counter("query_constituents_total"); after != before {
		t.Errorf("instrumentation still live after clearing: %d -> %d", before, after)
	}
}

// TestMetricsObserverPhases drives a MetricsObserver with a fake clock
// and checks the §5 phase attribution: pre until the first op touching
// the new day, transition until Publish, post afterwards.
func TestMetricsObserverPhases(t *testing.T) {
	reg := metrics.New()
	tm := NewTransitionMetrics(reg)
	tr := &recordingTracer{}
	o := NewMetricsObserver(tm, tr)
	clock := time.Unix(1000, 0)
	o.now = func() time.Time { return clock }
	tick := func(d time.Duration) { clock = clock.Add(d) }

	o.BeginTransition(11)
	tick(3 * time.Millisecond) // pre-computation: ops on old days only
	o.RecordOp(OpDelete, []int{1})
	o.RecordOp(OpCopy, []int{2, 3})
	tick(2 * time.Millisecond)
	o.RecordOp(OpAdd, []int{11}) // touches the new day: pre ends here
	tick(7 * time.Millisecond)
	o.Publish(11) // critical path ends
	tick(5 * time.Millisecond)
	o.RecordOp(OpBuild, []int{4}) // post-work
	o.Flush()

	snap := reg.Snapshot()
	if got := snap.Counter("transition_total"); got != 1 {
		t.Fatalf("transitions = %d, want 1", got)
	}
	if got := snap.Counter("transition_op_days_total"); got != 5 {
		t.Errorf("op days = %d, want 5", got)
	}
	for name, want := range map[string]int64{
		"transition_op_delete_total": 1,
		"transition_op_copy_total":   1,
		"transition_op_add_total":    1,
		"transition_op_build_total":  1,
		"transition_op_drop_total":   0,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Phase durations: pre = 5ms (3 + 2), work = 7ms, post = 5ms.
	for name, wantUS := range map[string]int64{
		"transition_pre_us":  5000,
		"transition_work_us": 7000,
		"transition_post_us": 5000,
	} {
		h := snap.Histogram(name)
		if h.Count != 1 || h.Sum != wantUS {
			t.Errorf("%s = count %d sum %d, want count 1 sum %d", name, h.Count, h.Sum, wantUS)
		}
	}
	// Span ops: pre carries 2 ops (delete, copy), work 1 (add), post 1.
	for kind, wantOps := range map[string]int{
		"transition.pre":  2,
		"transition.work": 1,
		"transition.post": 1,
	} {
		evs := tr.byKind(kind)
		if len(evs) != 1 {
			t.Fatalf("%s spans = %d, want 1", kind, len(evs))
		}
		if evs[0].Ops != wantOps || evs[0].Day != 11 {
			t.Errorf("%s span = ops %d day %d, want ops %d day 11", kind, evs[0].Ops, evs[0].Day, wantOps)
		}
	}
}

// TestMetricsObserverNewTransitionClosesPost checks a transition's
// post-work ends when the next transition begins, and that a newDay of 0
// (the Start bulk-load) never flips into the work phase.
func TestMetricsObserverNewTransitionClosesPost(t *testing.T) {
	reg := metrics.New()
	o := NewMetricsObserver(NewTransitionMetrics(reg), nil)
	clock := time.Unix(0, 0)
	o.now = func() time.Time { return clock }

	o.BeginTransition(0) // Start: everything is pre-computation
	clock = clock.Add(4 * time.Millisecond)
	o.RecordOp(OpBuild, []int{1, 2, 3})
	o.BeginTransition(4) // closes the load's running phase
	clock = clock.Add(time.Millisecond)
	o.RecordOp(OpAdd, []int{4})
	o.Publish(4)
	o.Flush()

	snap := reg.Snapshot()
	if h := snap.Histogram("transition_pre_us"); h.Count != 2 {
		t.Errorf("pre observations = %d, want 2 (load + day-4 pre)", h.Count)
	}
	if h := snap.Histogram("transition_work_us"); h.Count != 1 {
		t.Errorf("work observations = %d, want 1", h.Count)
	}
	if got := snap.Counter("transition_total"); got != 2 {
		t.Errorf("transitions = %d, want 2", got)
	}
}

// TestMetricsObserverOnScheme wires a MetricsObserver (via Fanout with a
// Recorder) into a real scheme and checks real transitions populate the
// phase histograms and op counters consistently with the Recorder.
func TestMetricsObserverOnScheme(t *testing.T) {
	reg := metrics.New()
	mo := NewMetricsObserver(NewTransitionMetrics(reg), nil)
	rec := NewRecorder()
	obs := FanoutObserver{mo, rec}

	store := simdisk.NewRAM(simdisk.Config{BlockSize: 256})
	t.Cleanup(func() { store.Close() })
	src := NewMemorySource(0)
	rng := rand.New(rand.NewSource(7))
	for d := 1; d <= 30; d++ {
		src.Put(genDay(d, rng))
	}
	bk := NewDataBackend(store, index.Options{Dir: index.HashDir, Growth: 2}, src, obs)
	s, err := NewScheme(KindREINDEX, Config{W: 9, N: 3, Technique: SimpleShadow, Observer: obs}, bk)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for d := 10; d <= 20; d++ {
		if err := s.Transition(d); err != nil {
			t.Fatal(err)
		}
	}
	mo.Flush()

	snap := reg.Snapshot()
	if got := snap.Counter("transition_total"); got != 12 { // Start + 11 days
		t.Errorf("transitions = %d, want 12", got)
	}
	if snap.Histogram("transition_work_us").Count == 0 {
		t.Error("no work-phase observations from real transitions")
	}
	if snap.Counter("transition_op_days_total") == 0 {
		t.Error("no op-day attribution from real transitions")
	}
	// The observer's op counts must agree with the Recorder's raw log.
	var recOps int64
	for _, l := range rec.Logs() {
		recOps += int64(len(l.Ops))
	}
	var obsOps int64
	for k := OpBuild; k <= OpDropIndex; k++ {
		obsOps += snap.Counter("transition_op_" + k.String() + "_total")
	}
	if obsOps != recOps {
		t.Errorf("observer counted %d ops, recorder logged %d", obsOps, recOps)
	}
}
