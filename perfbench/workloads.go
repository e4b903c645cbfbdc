package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/index"
	"waveindex/internal/server"
	"waveindex/internal/simdisk"
	gen "waveindex/internal/workload"
	"waveindex/wave"
	"waveindex/wave/shard"
)

const entrySize = index.EntrySize

// Every end-to-end metric exists on every workload: besides its main
// load, each runs the other operations on its quiesced fleet. The timed
// phase is cut into subWindows slices, each starting from a collected
// heap, and each slice repeats short rounds of the workload's mix, so
// every kind of operation is sampled across the whole run and the
// sample counts grow with its length.
const (
	probeBlock   = 300 * time.Millisecond // point-wire's probe load per round
	wireRolls    = 2                      // point-wire's day rolls per round
	verifyProbes = 64                     // probes checked against the final window
)

// rollSliceDays is how many days roll-ingest's day clock sends in each
// slice of its timed phase: two checkpoint intervals (the journal's
// default, 8 days), so every slice holds the same mix of plain and
// checkpoint days. At 30 s the clock ticks every 150 ms, so the fleet
// is busy with transitions about a fifth of the time and a checkpoint
// day ends before the next day is due even when the host runs slow;
// nearer saturation, queueing would multiply every slowdown.
const rollSliceDays = 16

// sliceEnd returns when slice s of a timed phase of length dur that
// began at start ends.
func sliceEnd(start time.Time, dur time.Duration, s int32) time.Time {
	return start.Add(dur * time.Duration(s+1) / subWindows)
}

// spec is one workload: one set of inputs and the fleet that serves them.
type spec struct {
	name, why string
	// config describes the fleet: scheme, technique, W, n, shards,
	// backend, flush policy, clients and loop type.
	config string
	gen    func(seed int64) *inputs
	// open builds the fleet and ingests the first W days (set-up).
	// tr is nil for untraced runs.
	open func(in *inputs, o *oracle, dir string, tr *spanCollector) (system, error)
	// ladder configures the standalone replay below the fleet's seams.
	ladder ladderCfg
}

// system is a workload's fleet after set-up.
type system interface {
	// exercise runs the timed phase of length dur and the final check
	// of the window, logging every operation.
	exercise(dur time.Duration, log *opLog) (phase, error)
	// window is the final required window.
	window() (from, to int)
	// warmUp runs untimed, between set-up and the timed phase.
	warmUp() error
	// peakStoreBytes is the high-water mark of the fleet's stores.
	peakStoreBytes() int64
	// layers adds per-layer values measured at this fleet's seams
	// (traced fleets only).
	layers(m map[string]float64, in *inputs, spans *spanCollector)
	// replay adds allocation counts from a quiesced, single-goroutine
	// replay of sampled requests at the fleet's entry point (untraced
	// fleets only, so span bookkeeping is not counted).
	replay(m map[string]float64, in *inputs)
	close() error
}

var workloads = map[string]*spec{}

func register(w *spec) { workloads[w.name] = w }

func init() {
	register(pointWire(pointWireSize{days: 28, articles: 2000, words: 15, vocab: 50000, keys: 1 << 16}))
	register(windowScan(windowScanSize{days: 40, rows: 20000, suppKeys: 1000, keys: 1 << 14}))
	register(rollIngest(rollIngestSize{days: 28, scale: 0.02, vocab: 50000, keys: 1 << 16}))
}

// traceOf returns tr as a wave.Tracer, keeping an absent collector a
// nil interface.
func traceOf(tr *spanCollector) wave.Tracer {
	if tr == nil {
		return nil
	}
	return tr
}

// tracedBackend puts the timing decorator in front of r when tracing.
func tracedBackend(r *shard.Router, tr *spanCollector, clock *opClock) server.Backend {
	if tr == nil {
		return r
	}
	return &timedBackend{routerBackend: r, clock: clock, tracer: tr}
}

// peakBytes sums the peak block usage of a fleet's stores, which all
// use the default block size.
func peakBytes(stores []simdisk.Stats) int64 {
	var peak int64
	for _, st := range stores {
		peak += st.PeakBlocks * simdisk.DefaultBlockSize
	}
	return peak
}

// ---------------------------------------------------------------- point-wire

type pointWireSize struct{ days, articles, words, vocab, keys int }

func pointWire(sz pointWireSize) *spec {
	const W, n = 8, 2
	return &spec{
		name: "point-wire",
		why:  "single-key PROBEs over loopback: wire parse/encode, routing and one bucket read per constituent dominate",
		config: "2-shard Router; each shard DEL, PackedShadow, W=8, n=2, RAM store; hash directory; caches off; " +
			"2 closed-loop connections sending PROBE of uniform keys over a 50,000-word Zipf-1.2 vocabulary",
		gen: func(seed int64) *inputs {
			return newsInputs(seed, sz.days, sz.articles, sz.words, sz.vocab, nil, 2, sz.keys)
		},
		open: func(in *inputs, o *oracle, dir string, tr *spanCollector) (system, error) {
			r, err := shard.New(shard.Config{Shards: 2, Base: wave.Config{
				Window: W, Indexes: n, Scheme: wave.DEL, Update: wave.PackedShadow, Trace: traceOf(tr),
			}})
			if err != nil {
				return nil, err
			}
			return openWireFleet(r, in, o, W, tr, 2)
		},
		ladder: ladderCfg{scheme: core.KindDEL, technique: core.PackedShadow, w: W, n: n, shards: 2},
	}
}

// wireFleet is a Router served over loopback: one ingest connection and
// some probe connections.
type wireFleet struct {
	r       *shard.Router
	wire    *wireServer
	clock   *opClock
	ingest  *server.Client
	probers []*server.Client
	in      *inputs
	o       *oracle
	w       int
	from    int
	to      int
	// rtt is the ingest client's ADDDAY round-trip time and probeRTT
	// the probe clients' mean round trip in microseconds, for the server
	// layer's self time.
	rtt      *opClock
	probeRTT float64
	// probeBytes and probeCount cover the timed phase's probes.
	probeBytes, probeCount int64
}

func openWireFleet(r *shard.Router, in *inputs, o *oracle, w int, tr *spanCollector, probers int) (*wireFleet, error) {
	f := &wireFleet{r: r, clock: newOpClock(), rtt: newOpClock(), in: in, o: o, w: w, from: 1, to: w}
	ws, err := serve(tracedBackend(r, tr, f.clock))
	if err != nil {
		r.Close()
		return nil, err
	}
	f.wire = ws
	fail := func(err error) (*wireFleet, error) {
		f.close()
		return nil, err
	}
	if f.ingest, err = ws.dial(); err != nil {
		return fail(err)
	}
	for i := 0; i < probers; i++ {
		c, err := ws.dial()
		if err != nil {
			return fail(err)
		}
		if tr != nil {
			if err := c.Trace(fmt.Sprintf("c%d", i)); err != nil {
				return fail(err)
			}
		}
		f.probers = append(f.probers, c)
	}
	for d := 1; d <= w; d++ {
		if err := f.ingest.AddDay(d, in.batch(d).Postings); err != nil {
			return fail(fmt.Errorf("day %d: %w", d, err))
		}
	}
	return f, nil
}

func (f *wireFleet) window() (int, int) { return f.from, f.to }

func (f *wireFleet) warmUp() error { return nil }

func (f *wireFleet) peakStoreBytes() int64 { return peakBytes(f.r.Stats().PerStore) }

func (f *wireFleet) close() error {
	err := f.wire.close()
	if cerr := f.r.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkProbe compares a window probe with the oracle.
func checkProbe(log *opLog, op string, d time.Duration, got []wave.Entry, err error, want []index.Entry) {
	switch {
	case err != nil:
		log.fail(op, err)
	case !sameEntries(got, want):
		log.mismatch(op, fmt.Sprintf("%d entries, want %d", len(got), len(want)))
	default:
		log.ok(op, d)
	}
}

// exercise repeats, in every slice of the timed phase, rounds of a
// probeBlock of closed-loop probes on every probe connection followed by
// one full-window scan, one TopKeys(10) and wireRolls day rolls on the
// quiesced fleet.
func (f *wireFleet) exercise(dur time.Duration, log *opLog) (phase, error) {
	f.clock.reset() // set-up's days are not the timed phase's
	logs := make([]*opLog, len(f.probers))
	pos := make([]int, len(f.probers))
	for i := range logs {
		logs[i] = newOpLog()
	}
	var ph phase
	start := time.Now()
	for s := int32(0); s < subWindows; s++ {
		runtime.GC() // each slice starts from the same heap
		log.slice = s
		end := sliceEnd(start, dur, s)
		for round := 0; round == 0 || time.Now().Before(end); round++ {
			t := time.Now()
			f.probeRound(logs, pos, s, t.Add(probeBlock))
			ph.busy[s] += time.Since(t)
			f.quiesced(log, wireRolls)
		}
	}
	for _, l := range logs {
		log.merge(l)
	}
	f.probeCount = int64(len(log.lat["probe"]))
	f.probeRTT = log.meanUS("probe")
	log.slice = -1
	f.verify(log)
	return ph, nil
}

// probeRound runs closed-loop probes on every probe connection until
// deadline, logging into slice s of each connection's log.
func (f *wireFleet) probeRound(logs []*opLog, pos []int, s int32, deadline time.Time) {
	before := f.wire.read.Load()
	var wg sync.WaitGroup
	for i, c := range f.probers {
		logs[i].slice = s
		wg.Add(1)
		go func(c *server.Client, keys []string, l *opLog, pos *int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				key := keys[*pos%len(keys)]
				*pos++
				t := time.Now()
				es, err := c.Probe(key)
				d := time.Since(t)
				checkProbe(l, "probe", d, es, err, f.o.probe(key, f.from, f.to))
			}
		}(c, f.in.keys[i], logs[i], &pos[i])
	}
	wg.Wait()
	f.probeBytes += f.wire.read.Load() - before
}

// quiesced runs, on the quiesced fleet, one full-window scan, one
// TopKeys(10), then the given number of day rolls.
func (f *wireFleet) quiesced(log *opLog, rolls int) {
	c := f.ingest
	want, wantTop := f.o.count(f.from, f.to), f.o.topKeys(10, f.from, f.to)
	t := time.Now()
	got, err := c.Count(f.from, f.to)
	d := time.Since(t)
	switch {
	case err != nil:
		log.fail("scan", err)
	case got != want:
		log.mismatch("scan", fmt.Sprintf("count %d, want %d", got, want))
	default:
		log.ok("scan", d)
	}
	t = time.Now()
	top, err := c.TopK(10)
	d = time.Since(t)
	switch {
	case err != nil:
		log.fail("topk", err)
	case !sameTop(fromWire(top), wantTop):
		log.mismatch("topk", fmt.Sprintf("%v, want %v", top, wantTop))
	default:
		log.ok("topk", d)
	}
	for i := 0; i < rolls; i++ {
		day := f.to + 1
		b := f.in.batch(day)
		t := time.Now()
		err := c.AddDay(day, b.Postings)
		el := time.Since(t)
		f.rtt.add("addday", el, 1)
		if err != nil {
			log.fail("addday", err)
			continue
		}
		log.ok("addday", el)
		f.from, f.to = f.from+1, f.to+1
	}
}

// verify checks a batch of probes against the final window.
func (f *wireFleet) verify(log *opLog) {
	keys := f.in.keys[0]
	for i := 0; i < verifyProbes; i++ {
		es, err := f.ingest.ProbeRange(keys[i], f.from, f.to)
		checkProbe(log, "verify", 0, es, err, f.o.probe(keys[i], f.from, f.to))
	}
}

// layers reports the server and shard layers, measured at the
// decorator and the counting connections.
func (f *wireFleet) layers(m map[string]float64, in *inputs, spans *spanCollector) {
	m["server.probe_self_us"] = f.probeRTT - usOf(f.clock.mean("probe"))
	if f.probeCount > 0 {
		m["server.reply_bytes_per_probe"] = float64(f.probeBytes) / float64(f.probeCount)
	}
	m["server.addday_self_ms"] = msOf(f.rtt.mean("addday") - f.clock.mean("addday"))
	m["shard.addday_ms"] = msOf(f.clock.mean("addday"))
	m["shard.probe_self_us"] = usOf(f.clock.mean("probe") - spans.meanOf("probe"))
}

func (f *wireFleet) replay(m map[string]float64, in *inputs) {
	keys := in.keys[0]
	ctx := context.Background()
	m["shard.probe_allocs"], m["shard.probe_bytes"] = allocsPerOp(ladderProbes, func(i int) {
		f.r.ProbeRange(ctx, keys[i%len(keys)], f.from, f.to)
	})
}

// ---------------------------------------------------------------- window-scan

type windowScanSize struct{ days, rows, suppKeys, keys int }

// drillDowns is the number of one-week SUPPKEY probes per cycle.
const drillDowns = 18

func windowScan(sz windowScanSize) *spec {
	const W, n = 20, 10
	return &spec{
		name: "window-scan",
		why:  "in-process full-window scans, TopKeys and drill-downs on a file-backed WATA* index: entry decode, k-way merge and file reads dominate",
		config: "one wave.Index, WATA*, SimpleShadow, W=20, n=10, g=1.08, file-backed store (never fsynced); caches off; " +
			"1 closed-loop caller cycling ScanRange(window) sum_qty, TopKeys(10, last week), 18 one-week SUPPKEY ProbeRanges",
		gen: func(seed int64) *inputs {
			return lineitemInputs(seed, sz.days, sz.rows, sz.suppKeys, sz.keys)
		},
		open: func(in *inputs, o *oracle, dir string, tr *spanCollector) (system, error) {
			x, err := wave.New(wave.Config{
				Window: W, Indexes: n, Scheme: wave.WATAStar, Update: wave.SimpleShadow,
				GrowthFactor: 1.08, StorePath: dir + "/lineitem.store", Trace: traceOf(tr),
			})
			if err != nil {
				return nil, err
			}
			for d := 1; d <= W; d++ {
				if err := x.AddDay(d, in.batch(d).Postings); err != nil {
					x.Close()
					return nil, fmt.Errorf("day %d: %w", d, err)
				}
			}
			return &scanFleet{x: x, q: x, in: in, o: o, from: 1, to: W, traced: tr != nil}, nil
		},
		ladder: ladderCfg{scheme: core.KindWATAStar, technique: core.SimpleShadow, w: W, n: n, growth: 1.08, file: true, shards: 1},
	}
}

// scanFleet is one in-process wave.Index. Reads go through q, which
// tests replace with a faulty wave.Querier decorator.
type scanFleet struct {
	x        *wave.Index
	q        wave.Querier
	in       *inputs
	o        *oracle
	from, to int
	traced   bool
	seq      int
}

func (f *scanFleet) window() (int, int) { return f.from, f.to }

func (f *scanFleet) warmUp() error { return nil }

func (f *scanFleet) peakStoreBytes() int64 { return peakBytes(f.x.Stats().PerStore) }

func (f *scanFleet) close() error { return f.x.Close() }

// ctx returns a context carrying a fresh per-request trace ID when
// traced.
func (f *scanFleet) ctx(kind string) context.Context {
	if !f.traced {
		return context.Background()
	}
	f.seq++
	return wave.WithTraceID(context.Background(), fmt.Sprintf("%s/%d", kind, f.seq))
}

// exercise repeats, in every slice of the timed phase, rounds of one
// query cycle (a full-window scan, a last-week TopKeys(10) and
// drillDowns one-week probes) followed by one day roll.
func (f *scanFleet) exercise(dur time.Duration, log *opLog) (phase, error) {
	keys := f.in.keys[0]
	k := 0
	var ph phase
	start := time.Now()
	for s := int32(0); s < subWindows; s++ {
		runtime.GC() // each slice starts from the same heap
		log.slice = s
		end := sliceEnd(start, dur, s)
		for round := 0; round == 0 || time.Now().Before(end); round++ {
			week := f.to - 6
			wantSum := f.o.sumAux(f.from, f.to)
			wantTop := f.o.topKeys(10, week, f.to)
			var sum int64
			cycle := time.Now()
			t := cycle
			err := f.q.ScanRange(f.ctx("scan"), f.from, f.to, func(_ string, e wave.Entry) bool {
				sum += int64(e.Aux)
				return true
			})
			d := time.Since(t)
			switch {
			case err != nil:
				log.fail("scan", err)
			case sum != wantSum:
				log.mismatch("scan", fmt.Sprintf("sum_qty %d, want %d", sum, wantSum))
			default:
				log.ok("scan", d)
			}
			t = time.Now()
			top, err := f.q.TopKeys(f.ctx("topk"), 10, week, f.to)
			d = time.Since(t)
			switch {
			case err != nil:
				log.fail("topk", err)
			case !sameTop(top, wantTop):
				log.mismatch("topk", fmt.Sprintf("%v, want %v", top, wantTop))
			default:
				log.ok("topk", d)
			}
			for i := 0; i < drillDowns; i++ {
				key := keys[k%len(keys)]
				k++
				t = time.Now()
				es, err := f.q.ProbeRange(f.ctx("probe"), key, week, f.to)
				d = time.Since(t)
				checkProbe(log, "probe", d, es, err, f.o.probe(key, week, f.to))
			}
			ph.busy[s] += time.Since(cycle)
			day := f.to + 1
			b := f.in.batch(day)
			t = time.Now()
			err = f.x.AddDay(day, b.Postings)
			d = time.Since(t)
			if err != nil {
				log.fail("addday", err)
				continue
			}
			log.ok("addday", d)
			f.from, f.to = f.from+1, f.to+1
		}
	}
	log.slice = -1
	for i := 0; i < verifyProbes; i++ {
		es, err := f.q.ProbeRange(context.Background(), keys[i], f.from, f.to)
		checkProbe(log, "verify", 0, es, err, f.o.probe(keys[i], f.from, f.to))
	}
	return ph, nil
}

// layers and replay add nothing: window-scan has no server or Router
// seam, and the ladder replays its wave.Index.
func (f *scanFleet) layers(map[string]float64, *inputs, *spanCollector) {}

func (f *scanFleet) replay(map[string]float64, *inputs) {}

// ---------------------------------------------------------------- roll-ingest

type rollIngestSize struct {
	days  int
	scale float64
	vocab int
	keys  int
}

func rollIngest(sz rollIngestSize) *spec {
	const W, n = 8, 4
	return &spec{
		name: "roll-ingest",
		why:  "journaled ADDDAYs on an open-loop day clock beside a closed-loop PROBERANGE reader: REINDEX rebuilds, journal fsync and checkpoints compete with reads",
		config: "2-shard journaled Router (OpenJournalDir, fsync as the code does it, checkpoint every 8 days); each shard REINDEX, W=8, n=4, RAM store; " +
			"caches off; open-loop ADDDAY day clock (weekly Usenet shape, ~2,000 weekday / 600 Sunday articles) plus 1 closed-loop PROBERANGE connection",
		gen: func(seed int64) *inputs {
			vol := gen.UsenetVolume{Scale: sz.scale, Seed: seed}
			return newsInputs(seed, sz.days, 0, 15, sz.vocab, vol.Postings, 1, sz.keys)
		},
		open: func(in *inputs, o *oracle, dir string, tr *spanCollector) (system, error) {
			r, err := shard.OpenJournalDir(shard.Config{Shards: 2, Base: wave.Config{
				Window: W, Indexes: n, Scheme: wave.REINDEX, Trace: traceOf(tr),
			}}, dir, wave.JournalOptions{})
			if err != nil {
				return nil, err
			}
			f, err := openWireFleet(r, in, o, W, tr, 1)
			if err != nil {
				return nil, err
			}
			return &rollFleet{wireFleet: f}, nil
		},
		ladder: ladderCfg{scheme: core.KindREINDEX, w: W, n: n, shards: 2, journal: true}, // REINDEX rebuilds; no update technique
	}
}

// rollFleet is a journaled wireFleet whose timed phase rolls days.
type rollFleet struct {
	*wireFleet
	peak int64 // store high-water mark after the warm-up
	next int   // the reader's position in its key stream
}

// warmUp rolls one cycle of the generated days with no reader running
// and keeps the stores' high-water mark for space_amp. The timed phase
// would make that mark differ from run to run: a constituent replaced
// while a probe is in flight is dropped only at the next transition, so
// the peak depends on whether the reader happened to be inside the
// index at some swap.
func (f *rollFleet) warmUp() error {
	for i := 0; i < f.in.numDays(); i++ {
		day := f.to + 1
		if err := f.ingest.AddDay(day, f.in.batch(day).Postings); err != nil {
			return fmt.Errorf("warm-up day %d: %w", day, err)
		}
		f.from, f.to = f.from+1, f.to+1
	}
	f.peak = peakBytes(f.r.Stats().PerStore)
	return nil
}

func (f *rollFleet) peakStoreBytes() int64 { return f.peak }

// exercise repeats, in every slice of the timed phase, a block of
// rollSliceDays days on the open-loop day clock beside the closed-loop
// reader, lasting four fifths of the slice, then alternates full-window
// scans and TopKeys(10) on the quiesced fleet until the slice ends.
func (f *rollFleet) exercise(dur time.Duration, log *opLog) (phase, error) {
	f.clock.reset() // set-up's days are not the timed phase's
	readLog := newOpLog()
	block := dur * 4 / 5 / subWindows
	var ph phase
	start := time.Now()
	for s := int32(0); s < subWindows; s++ {
		runtime.GC() // each slice starts from the same heap
		log.slice, readLog.slice = s, s
		before := f.wire.read.Load()
		ph.lateness = max(ph.lateness, f.rollBlock(block, log, readLog))
		f.probeBytes += f.wire.read.Load() - before
		ph.busy[s] = block
		end := sliceEnd(start, dur, s)
		for round := 0; round == 0 || time.Now().Before(end); round++ {
			f.quiesced(log, 0)
		}
	}
	log.merge(readLog)
	f.probeCount = int64(len(readLog.lat["probe"]))
	f.probeRTT = readLog.meanUS("probe")
	log.slice = -1
	f.verify(log)
	return ph, nil
}

// rollBlock sends rollSliceDays days on an open-loop clock spread over
// block, timing each from its due time, while the reader probes, and
// returns how late the clock ran at most.
func (f *rollFleet) rollBlock(block time.Duration, log, readLog *opLog) time.Duration {
	period := block / rollSliceDays
	// acked is the newest day the writer saw acknowledged; started the
	// newest day it sent. The reader probes [acked-W+2, acked], which
	// stays in the window across the one transition that may be in
	// flight; if the writer got further ahead, the oldest days may be
	// gone and checkRange allows exactly that.
	var acked, started atomic.Int64
	acked.Store(int64(f.to))
	started.Store(int64(f.to))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, keys := f.probers[0], f.in.keys[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := int(acked.Load())
			lo := a - f.w + 2
			key := keys[f.next%len(keys)]
			f.next++
			t := time.Now()
			es, err := c.ProbeRange(key, lo, a)
			d := time.Since(t)
			if err != nil {
				readLog.fail("probe", err)
				continue
			}
			if detail := checkRange(es, f.o.probe(key, lo, a), int(started.Load())-f.w+1); detail != "" {
				readLog.mismatch("probe", detail)
				continue
			}
			readLog.ok("probe", d)
		}
	}()
	var late time.Duration
	first := f.to + 1
	start := time.Now()
	for i := 0; i < rollSliceDays; i++ {
		day := first + i
		b := f.in.batch(day)
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		} else if -wait > late {
			late = -wait
		}
		started.Store(int64(day))
		sent := time.Now()
		err := f.ingest.AddDay(day, b.Postings)
		el := time.Since(due)
		f.rtt.add("addday", time.Since(sent), 1)
		if err != nil {
			log.fail("addday", err)
			continue
		}
		acked.Store(int64(day))
		log.ok("addday", el)
	}
	// Let the reader run to the end of the block's last period.
	time.Sleep(time.Until(start.Add(block)))
	close(stop)
	wg.Wait()
	f.from, f.to = f.from+rollSliceDays, f.to+rollSliceDays
	return late
}

// checkRange accepts a PROBERANGE answer that equals the oracle's, or
// the oracle's minus entries of days before minLive — days a transition
// that started after the range was chosen may already have expired.
func checkRange(got, want []index.Entry, minLive int) string {
	k := len(want) - len(got)
	if k < 0 || !sameEntries(got, want[k:]) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	if k == 0 {
		return ""
	}
	if int(want[k-1].Day) >= minLive || (k < len(want) && want[k].Day == want[k-1].Day) {
		return fmt.Sprintf("missing %d entries of live days", k)
	}
	return ""
}
