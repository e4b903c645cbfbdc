// Command perfbench is the repository's wall-clock benchmark. It drives
// the wave-index system through its public entry points — the waved
// wire protocol (server.Client against a server.NewBackend listener in
// this process) and the wave / wave/shard library — checks every answer
// against an independent oracle, and prints each end-to-end metric with
// its unit and sample count, then one JSON line.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload point-wire --seed 1 --seconds 30 --trace 0
//
// --trace 1 runs the workload twice on fresh fleets, untraced and then
// traced (a timing decorator between server and Router, counting
// connections, the wave.Config.Trace span hook), replays sampled
// requests against standalone core and index objects (the layer
// ladder), and prints the per-layer metrics instead. Spans are written
// as a Chrome trace under the work directory. See workloads.go for the
// three workloads and layers.go for the layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: point-wire, window-scan or roll-ingest")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for stores, journals and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	dur := time.Duration(*seconds * float64(time.Second))
	var res *report
	if *trace == 1 {
		res, err = tracedRun(w, *seed, dur, dir, *workdir)
	} else {
		res, err = plainRun(w, *seed, dur, dir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s seed=%d: %s\n", w.name, *seed, w.config)
	res.print(stdout)
	if res.out.Failed > 0 {
		for _, n := range res.notes {
			fmt.Fprintf(stderr, "perfbench: %s\n", n)
		}
	}
	return 0
}

// report is a finished run: the JSON result plus sample counts and
// notes for the human-readable table.
type report struct {
	out      result
	counts   map[string]int
	notes    []string
	lateness time.Duration
	rt       runtimeCounters // runtime activity during the timed phase
}

func newReport() *report {
	return &report{out: result{Correct: true, Metrics: map[string]metric{}}, counts: map[string]int{}}
}

func (r *report) set(name, unit string, v float64, n int) {
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
	r.counts[name] = n
}

func (r *report) addLog(l *opLog) {
	r.out.Attempted += l.attempted
	r.out.Failed += l.failed
	if l.mismatched > 0 {
		r.out.Correct = false
	}
	r.notes = append(r.notes, l.notes...)
}

// print writes one line per metric (name, value, unit, samples), the
// failure accounting, and the JSON result as the last line.
func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.out.Metrics))
	for n := range r.out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.out.Metrics[n]
		fmt.Fprintf(w, "%-34s %14s %-6s n=%d\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, r.counts[n])
	}
	frac := 0.0
	if r.out.Attempted > 0 {
		frac = float64(r.out.Failed) / float64(r.out.Attempted)
	}
	fmt.Fprintf(w, "%-34s %14s %-6s n=%d\n", "failed_frac", strconv.FormatFloat(frac, 'g', 8, 64), "ratio", r.out.Attempted)
	fmt.Fprintf(w, "%-34s %14.3f %-6s\n", "generator_lateness_max_ms", float64(r.lateness)/1e6, "ms")
	b, _ := json.Marshal(r.out) // a map of finite floats always encodes
	fmt.Fprintln(w, string(b))
}

// plainRun measures the end-to-end metrics.
func plainRun(w *spec, seed int64, dur time.Duration, dir string) (*report, error) {
	in := w.gen(seed)
	return measure(w, in, newOracle(in), dur, dir, nil, nil)
}

// measure sets the fleet up setupRuns times (setup_s is the median),
// runs the timed phase on the last fleet, and reports the
// end-to-end metrics. spans, when non-nil, traces the fleet; layers,
// when non-nil, sees the fleet after the timed phase, before it is closed.
func measure(w *spec, in *inputs, o *oracle, dur time.Duration, dir string, spans *spanCollector, layers func(system)) (*report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in.keep(w.ladder.w)
	heap := startHeapSampler()
	var setups []float64
	var sys system
	for i := 0; i < setupRuns; i++ {
		sub := filepath.Join(dir, "setup-"+strconv.Itoa(i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			heap.Stop()
			return nil, err
		}
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		s, err := w.open(in, o, sub, spans)
		if err != nil {
			heap.Stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRuns-1 {
			if err := closeAndRemove(s, sub); err != nil {
				heap.Stop()
				return nil, err
			}
			continue
		}
		sys = s
	}
	if err := sys.warmUp(); err != nil {
		heap.Stop()
		sys.close()
		return nil, err
	}
	if spans != nil {
		spans.reset()
	}
	log := newOpLog()
	rt0 := readRuntime()
	ph, err := sys.exercise(dur, log)
	rt1 := readRuntime()
	heapMB := heap.Stop()
	if err == nil && layers != nil {
		layers(sys)
	}
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.addLog(log)
	r.lateness = ph.lateness
	r.rt = runtimeCounters{gcCPU: rt1.gcCPU - rt0.gcCPU, totalCPU: rt1.totalCPU - rt0.totalCPU, allocBytes: rt1.allocBytes - rt0.allocBytes}
	endToEnd(r, log, ph, sys, o)
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("heap_peak_mb", "MiB", heapMB, 1)
	return r, nil
}

// setupRuns is how many times a run sets its fleet up; setup_s is the
// median.
const setupRuns = 9

func closeAndRemove(s system, dir string) error {
	err := s.close()
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// phase describes a finished timed phase.
type phase struct {
	busy     [subWindows]time.Duration // time each slice spent on its probe load
	lateness time.Duration             // how late the day generator ran, at most
}

// endToEnd fills the latency, throughput and space metrics from a
// finished run's log.
func endToEnd(r *report, log *opLog, ph phase, sys system, o *oracle) {
	set := func(name, unit, op string, q, scale float64) {
		v, n := log.latency(op, q)
		r.set(name, unit, v/scale, n)
	}
	set("probe_p50_us", "us", "probe", 50, 1)
	set("probe_p95_us", "us", "probe", 95, 1)
	qps, n := log.rate("probe", ph.busy)
	r.set("probe_qps", "1/s", qps, n)
	set("scan_p50_ms", "ms", "scan", 50, 1e3)
	set("scan_p90_ms", "ms", "scan", 90, 1e3)
	set("topk_p50_ms", "ms", "topk", 50, 1e3)
	set("addday_p50_ms", "ms", "addday", 50, 1e3)
	set("addday_p90_ms", "ms", "addday", 90, 1e3)
	// The store's peak meets the run's largest window, whichever day
	// that was.
	from, to := sys.window()
	most := 0
	for d := to - from + 1; d <= to; d++ {
		most = max(most, o.count(d-(to-from), d))
	}
	r.set("space_amp", "ratio", float64(sys.peakStoreBytes())/float64(most*entrySize), 1)
}
