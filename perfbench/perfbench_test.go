package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/index"
	"waveindex/internal/server"
	"waveindex/internal/simdisk"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// Small versions of the three workloads, fast enough for tests.
var (
	smallPointWire  = pointWire(pointWireSize{days: 14, articles: 60, words: 5, vocab: 400, keys: 512})
	smallWindowScan = windowScan(windowScanSize{days: 28, rows: 300, suppKeys: 50, keys: 512})
	smallRollIngest = rollIngest(rollIngestSize{days: 14, scale: 0.0005, vocab: 400, keys: 512})
)

func TestPercentile(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50.5}, {99, 99.01}, {100, 100}, {90, 90.1}} {
		got, n := percentile(s, c.p)
		if n != 100 || got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(1..100, %v) = %v, %d; want %v, 100", c.p, got, n, c.want)
		}
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("percentile(nil) = %v, %d; want 0, 0", v, n)
	}
	if v, n := percentile([]float64{7}, 99); v != 7 || n != 1 {
		t.Errorf("percentile([7], 99) = %v, %d; want 7, 1", v, n)
	}
}

// encode serialises the inputs, so two generations can be compared
// byte for byte.
func (in *inputs) encode() []byte {
	var b bytes.Buffer
	var n [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(n[:], v)
		b.Write(n[:])
	}
	for d := 1; d <= in.numDays(); d++ {
		batch := in.batch(d)
		put(uint64(batch.Day))
		put(uint64(len(batch.Postings)))
		for _, p := range batch.Postings {
			b.WriteString(p.Key)
			b.WriteByte(0)
			put(p.Entry.RecordID)
			put(uint64(p.Entry.Aux)<<32 | uint64(uint32(p.Entry.Day)))
		}
	}
	for _, ks := range in.keys {
		put(uint64(len(ks)))
		for _, k := range ks {
			b.WriteString(k)
			b.WriteByte(0)
		}
	}
	return b.Bytes()
}

func TestSameSeedInputsAreByteIdentical(t *testing.T) {
	for _, w := range []*spec{smallPointWire, smallWindowScan, smallRollIngest} {
		a, b := w.gen(42).encode(), w.gen(42).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations with seed 42 differ", w.name)
		}
		if bytes.Equal(a, w.gen(43).encode()) {
			t.Errorf("%s: seeds 42 and 43 generate the same inputs", w.name)
		}
	}
}

// runSmall opens a small workload's fleet, lets mutate replace parts of
// it, and runs a short timed phase.
func runSmall(t *testing.T, w *spec, mutate func(system)) *report {
	t.Helper()
	in := w.gen(1)
	o := newOracle(in)
	sys, err := w.open(in, o, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(sys)
	}
	if err := sys.warmUp(); err != nil {
		t.Fatal(err)
	}
	log := newOpLog()
	ph, err := sys.exercise(300*time.Millisecond, log)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	r.addLog(log)
	endToEnd(r, log, ph, sys, o)
	if err := sys.close(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWorkloadsPassTheOracle(t *testing.T) {
	for _, w := range []*spec{smallPointWire, smallWindowScan, smallRollIngest} {
		t.Run(w.name, func(t *testing.T) {
			r := runSmall(t, w, nil)
			if !r.out.Correct || r.out.Failed != 0 || r.out.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d notes=%v", r.out.Correct, r.out.Failed, r.out.Attempted, r.notes)
			}
			for _, d := range endToEndDefs {
				if d.name == "setup_s" || d.name == "heap_peak_mb" {
					continue // set by measure
				}
				if m, ok := r.out.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
		})
	}
}

// dropOne is a wave.Querier that loses one entry of every non-empty
// ProbeRange answer.
type dropOne struct{ wave.Querier }

func (q dropOne) ProbeRange(ctx context.Context, key string, from, to int) ([]wave.Entry, error) {
	es, err := q.Querier.ProbeRange(ctx, key, from, to)
	if len(es) > 0 {
		es = es[1:]
	}
	return es, err
}

func TestDroppedEntryFailsTheRun(t *testing.T) {
	r := runSmall(t, smallWindowScan, func(s system) {
		f := s.(*scanFleet)
		f.q = dropOne{f.q}
	})
	if r.out.Correct {
		t.Fatal("a querier that drops entries passed the oracle")
	}
	if r.out.Failed == 0 {
		t.Fatal("wrong answers were not counted as failed ops")
	}
}

var errInjected = errors.New("injected")

// failEvery is a wave.Querier whose every third TopKeys fails.
type failEvery struct {
	wave.Querier
	n *int
}

func (q failEvery) TopKeys(ctx context.Context, k, from, to int) ([]wave.KeyCount, error) {
	*q.n++
	if *q.n%3 == 0 {
		return nil, errInjected
	}
	return q.Querier.TopKeys(ctx, k, from, to)
}

func TestInjectedErrorRaisesFailedFrac(t *testing.T) {
	n := 0
	r := runSmall(t, smallWindowScan, func(s system) {
		f := s.(*scanFleet)
		f.q = failEvery{f.q, &n}
	})
	if r.out.Failed == 0 || r.out.Failed > r.out.Attempted {
		t.Fatalf("failed=%d attempted=%d, want 0 < failed <= attempted", r.out.Failed, r.out.Attempted)
	}
	if !r.out.Correct {
		t.Fatalf("an error reply was taken for a wrong answer: %v", r.notes)
	}
	// A failed op enters the percentiles at failLatency.
	if p50 := r.out.Metrics["topk_p50_ms"].Value; p50 <= 0 {
		t.Fatalf("topk_p50_ms = %v", p50)
	}
}

// Days past the generated ones repeat them, and the oracle answers for
// a window that wraps around exactly as the repeated batches say.
func TestRepeatedDaysMatchTheOracle(t *testing.T) {
	in := smallPointWire.gen(1)
	o := newOracle(in)
	k := in.numDays()
	from, to := k-2, k+3 // wraps past the last generated day
	byKey := map[string][]index.Entry{}
	total := 0
	for d := from; d <= to; d++ {
		b, g := in.batch(d), in.batch(generated(d, k))
		if b.Day != d || len(b.Postings) != len(g.Postings) {
			t.Fatalf("day %d: day %d with %d postings, want %d postings of day %d", d, b.Day, len(b.Postings), len(g.Postings), generated(d, k))
		}
		for i, p := range b.Postings {
			if p.Key != g.Postings[i].Key || int(p.Entry.Day) != d || p.Entry.RecordID != g.Postings[i].Entry.RecordID {
				t.Fatalf("day %d posting %d = %+v, want %+v restamped", d, i, p, g.Postings[i])
			}
			byKey[p.Key] = append(byKey[p.Key], p.Entry)
		}
		total += len(b.Postings)
	}
	if n := o.count(from, to); n != total {
		t.Errorf("count(%d, %d) = %d, want %d", from, to, n, total)
	}
	for key, want := range byKey {
		sort.Slice(want, func(i, j int) bool { return entryLess(want[i], want[j]) })
		if got := o.probe(key, from, to); !sameEntries(got, want) {
			t.Fatalf("probe(%q) = %v, want %v", key, got, want)
		}
	}
}

func TestCheckRange(t *testing.T) {
	e := func(day int32, rec uint64) index.Entry { return index.Entry{Day: day, RecordID: rec} }
	want := []index.Entry{e(2, 1), e(2, 2), e(3, 1), e(4, 1)}
	cases := []struct {
		got     []index.Entry
		minLive int
		ok      bool
	}{
		{want, 2, true},
		{want[2:], 3, true},  // day 2 expired by a later transition
		{want[2:], 2, false}, // day 2 is still live
		{want[1:], 3, false}, // half of a day is missing
		{want[:3], 2, false}, // the newest entry is missing
		{nil, 5, true},       // every day expired
	}
	for i, c := range cases {
		if got := checkRange(c.got, want, c.minLive) == ""; got != c.ok {
			t.Errorf("case %d: accepted=%v, want %v", i, got, c.ok)
		}
	}
}

func TestShardOfMatchesRouter(t *testing.T) {
	r, err := shard.New(shard.Config{Shards: 2, Base: wave.Config{Window: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, k := range []string{"w00001", "w12345", "supp000042", "", "x"} {
		if got, want := shardOf(k, 2), r.ShardFor(k); got != want {
			t.Errorf("shardOf(%q) = %d, Router says %d", k, got, want)
		}
	}
}

// The decorators must keep every optional interface the server and the
// core type-assert, or the traced run measures a different program.
var (
	_ server.Recoverer                                   = (*timedBackend)(nil)
	_ interface{ Journaled() bool }                      = (*timedBackend)(nil)
	_ interface{ CacheInfo() wave.CacheInfo }            = (*timedBackend)(nil)
	_ interface{ ShardMetrics() []wave.MetricsSnapshot } = (*timedBackend)(nil)
	_ interface{ BreakerStates() []shard.BreakerInfo }   = (*timedBackend)(nil)
	_ interface{ OpenBreakers() []int }                  = (*timedBackend)(nil)
	_ core.ParallelBuilder                               = (*timedParallelBackend)(nil)
	_ searchConstituent                                  = (*timedConstituent)(nil)
)

func TestCoreDecoratorForwardsOptionalInterfaces(t *testing.T) {
	src := core.NewMemorySource(0)
	src.Put(&index.Batch{Day: 1, Postings: []index.Posting{{Key: "a", Entry: index.Entry{RecordID: 1, Day: 1}}}})
	plain := core.NewDataBackend(simdisk.NewRAM(simdisk.Config{}), index.Options{}, src, nil)
	if _, ok := wrapCoreBackend(plain, newOpClock()).(core.ParallelBuilder); ok {
		t.Error("wrapping a DataBackend added a ParallelBuilder surface")
	}
	multi, err := core.NewMultiDiskBackend([]simdisk.BlockStore{simdisk.NewRAM(simdisk.Config{}), simdisk.NewRAM(simdisk.Config{})}, index.Options{}, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapCoreBackend(multi, newOpClock()).(core.ParallelBuilder); !ok {
		t.Error("wrapping a MultiDiskBackend lost its ParallelBuilder surface")
	}
	c, err := wrapCoreBackend(plain, newOpClock()).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(searchConstituent); !ok {
		t.Fatal("a decorated constituent lost Searcher, MultiSearcher or DayBounder")
	}
	if lo, hi, ok := c.(core.DayBounder).DayBounds(); !ok || lo != 1 || hi != 1 {
		t.Errorf("DayBounds = %d, %d, %v; want 1, 1, true", lo, hi, ok)
	}
}

// The ladder's counts (seeks, bytes, entries) must repeat exactly for
// one seed: they are the benchmark's determinism check.
func TestLadderCountsRepeat(t *testing.T) {
	counts := []string{
		"simdisk.seeks_per_probe", "simdisk.useful_read_ratio", "simdisk.write_amp",
		"simdisk.sim_us_per_probe", "simdisk.sim_ms_per_day", "index.entries_per_probe",
	}
	for _, w := range []*spec{smallPointWire, smallWindowScan, smallRollIngest} {
		in := w.gen(3)
		var runs [2]map[string]float64
		for i := range runs {
			runs[i] = map[string]float64{}
			if err := runLadder(w.ladder, in, t.TempDir(), runs[i]); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		for _, c := range counts {
			if runs[0][c] != runs[1][c] || runs[0][c] == 0 {
				t.Errorf("%s: %s = %v then %v; want equal and non-zero", w.name, c, runs[0][c], runs[1][c])
			}
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	w := *smallRollIngest
	w.name = "small-roll-ingest"
	workloads[w.name] = &w
	defer delete(workloads, w.name)
	dir := t.TempDir()
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "small-roll-ingest", "--seconds", "0.5", "--trace", "1", "--workdir", dir}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: %+v", res)
	}
	for _, d := range layerDefs {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	for _, name := range []string{"server.probe_self_us", "shard.addday_ms", "wave.probe_us", "wave.checkpoint_ms",
		"core.transition_work_ms", "index.build_ms_per_day", "simdisk.write_amp", "wave.journal_bytes_per_day"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on roll-ingest, want > 0", name, res.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-small-roll-ingest-1.json")); err != nil {
		t.Errorf("Chrome trace not written: %v", err)
	}
}

// BENCHMARK.json must list exactly the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if p, ok := workloads[w.Name]; !ok || p.why != w.Why {
			t.Errorf("workload %s: not registered or why differs", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, layerDefs)
}
