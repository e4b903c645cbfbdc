package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric. For per-layer metrics, moves
// lists the end-to-end metrics it should move and on lists the
// workloads where it should move them; this is the benchmark's layer →
// metric → workload map, written down before any change is measured.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEndDefs are the metrics a user of the system sees. Every
// workload reports all of them (see the rounds in workloads.go).
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "probe_p50_us", unit: "us", better: "lower"},
	{name: "probe_p95_us", unit: "us", better: "lower"},
	{name: "probe_qps", unit: "1/s", better: "higher"},
	{name: "scan_p50_ms", unit: "ms", better: "lower"},
	{name: "scan_p90_ms", unit: "ms", better: "lower"},
	{name: "topk_p50_ms", unit: "ms", better: "lower"},
	{name: "addday_p50_ms", unit: "ms", better: "lower"},
	{name: "addday_p90_ms", unit: "ms", better: "lower"},
	{name: "space_amp", unit: "ratio", better: "lower"},
	{name: "heap_peak_mb", unit: "MiB", better: "lower"},
}

// layerDefs are the traced run's per-layer metrics. A metric whose
// layer a workload does not pass through reads 0 on that workload
// (window-scan has no server or Router; only roll-ingest journals).
var layerDefs = []metricDef{
	{"server.probe_self_us", "us", "lower", "probe_p50_us probe_qps", "point-wire"},
	{"server.reply_bytes_per_probe", "bytes", "lower", "probe_p50_us probe_qps", "point-wire"},
	{"server.addday_self_ms", "ms", "lower", "addday_p50_ms", "roll-ingest"},
	{"shard.probe_self_us", "us", "lower", "probe_p50_us", "point-wire"},
	{"shard.probe_allocs", "count", "lower", "probe_p50_us", "point-wire"},
	{"shard.probe_bytes", "bytes", "lower", "probe_p50_us", "point-wire"},
	{"shard.addday_ms", "ms", "lower", "addday_p50_ms", "roll-ingest"},
	{"shard.addday_skew", "ratio", "lower", "addday_p50_ms", "roll-ingest"},
	{"wave.probe_us", "us", "lower", "probe_p50_us", "window-scan"},
	{"wave.probe_allocs", "count", "lower", "probe_p50_us", "window-scan"},
	{"wave.probe_bytes", "bytes", "lower", "probe_p50_us", "window-scan"},
	{"wave.scan_ms", "ms", "lower", "scan_p50_ms", "window-scan"},
	{"wave.topk_ms", "ms", "lower", "topk_p50_ms", "window-scan"},
	{"wave.journal_ms_per_day", "ms", "lower", "addday_p50_ms", "roll-ingest"},
	{"wave.journal_bytes_per_day", "bytes", "lower", "addday_p50_ms", "roll-ingest"},
	{"wave.checkpoint_ms", "ms", "lower", "addday_p90_ms", "roll-ingest"},
	{"core.probe_self_us", "us", "lower", "probe_p50_us", "window-scan"},
	{"core.scan_self_ms", "ms", "lower", "scan_p50_ms", "window-scan"},
	{"core.constituents_per_probe", "count", "lower", "probe_p50_us", "window-scan"},
	{"core.transition_pre_ms", "ms", "lower", "addday_p50_ms", "roll-ingest"},
	{"core.transition_work_ms", "ms", "lower", "addday_p50_ms probe_p95_us", "roll-ingest"},
	{"core.transition_post_ms", "ms", "lower", "addday_p50_ms", "roll-ingest"},
	{"index.probe_us", "us", "lower", "probe_p50_us", "window-scan"},
	{"index.probe_allocs", "count", "lower", "probe_p50_us", "window-scan"},
	{"index.probe_bytes", "bytes", "lower", "probe_p50_us", "window-scan"},
	{"index.entries_per_probe", "count", "higher", "probe_p50_us", "window-scan"},
	{"index.scan_ns_per_entry", "ns", "lower", "scan_p50_ms", "window-scan"},
	{"index.scan_allocs_per_entry", "count", "lower", "scan_p50_ms", "window-scan"},
	{"index.build_ms_per_day", "ms", "lower", "addday_p50_ms", "roll-ingest"},
	{"index.merge_ms", "ms", "lower", "addday_p50_ms", "point-wire"},
	{"simdisk.read_ns", "ns", "lower", "scan_p50_ms", "window-scan"},
	{"simdisk.write_ns", "ns", "lower", "addday_p50_ms", "roll-ingest"},
	{"simdisk.seeks_per_probe", "count", "lower", "none (sim-only)", "window-scan"},
	{"simdisk.useful_read_ratio", "ratio", "higher", "none (sim-only)", "window-scan"},
	{"simdisk.write_amp", "ratio", "lower", "addday_p50_ms space_amp", "roll-ingest"},
	{"simdisk.sim_us_per_probe", "us", "lower", "none (sim-only)", "window-scan"},
	{"simdisk.sim_ms_per_day", "ms", "lower", "none (sim-only)", "roll-ingest"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "every latency", "window-scan"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", "every latency", "window-scan"},
	{"bench.generator_lateness_ms", "ms", "lower", "none (the load generator, not the system)", "roll-ingest"},
	{"overhead.probe_p50_us", "us", "lower", "none (tracing cost)", "point-wire"},
	{"overhead.probe_p95_us", "us", "lower", "none (tracing cost)", "point-wire"},
	{"overhead.probe_qps", "1/s", "higher", "none (tracing cost)", "point-wire"},
	{"overhead.scan_p50_ms", "ms", "lower", "none (tracing cost)", "window-scan"},
	{"overhead.topk_p50_ms", "ms", "lower", "none (tracing cost)", "window-scan"},
	{"overhead.addday_p50_ms", "ms", "lower", "none (tracing cost)", "roll-ingest"},
}

// tracedRun runs the workload untraced and then traced on a fresh fleet
// from the same inputs, replays the layer ladder, and reports the
// per-layer metrics. The overhead.* metrics are the traced pass's
// end-to-end values minus the untraced pass's.
func tracedRun(w *spec, seed int64, dur time.Duration, dir, workdir string) (*report, error) {
	in := w.gen(seed)
	o := newOracle(in)
	m := map[string]float64{}
	for _, d := range layerDefs {
		m[d.name] = 0
	}
	plain, err := measure(w, in, o, dur, filepath.Join(dir, "untraced"), nil, func(s system) { s.replay(m, in) })
	if err != nil {
		return nil, err
	}
	if plain.rt.totalCPU > 0 {
		m["runtime.gc_cpu_frac"] = plain.rt.gcCPU / plain.rt.totalCPU
	}
	m["runtime.alloc_bytes_per_op"] = float64(plain.rt.allocBytes) / float64(max(1, plain.out.Attempted))
	m["bench.generator_lateness_ms"] = msOf(plain.lateness)

	spans := newSpanCollector()
	traced, err := measure(w, in, o, dur, filepath.Join(dir, "traced"), spans, func(s system) { s.layers(m, in, spans) })
	if err != nil {
		return nil, err
	}
	probe, self, perProbe := spans.probeStats()
	m["wave.probe_us"] = usOf(probe)
	m["core.probe_self_us"] = usOf(self)
	m["core.constituents_per_probe"] = perProbe
	m["wave.scan_ms"] = msOf(spans.meanOf("scan"))
	m["core.scan_self_ms"] = msOf(spans.scanSelf())
	m["shard.addday_skew"] = spans.addDaySkew()
	m["wave.checkpoint_ms"] = msOf(spans.meanOf("journal.checkpoint"))
	for _, name := range []string{"probe_p50_us", "probe_p95_us", "probe_qps", "scan_p50_ms", "topk_p50_ms", "addday_p50_ms"} {
		m["overhead."+name] = traced.out.Metrics[name].Value - plain.out.Metrics[name].Value
	}
	ladderDir := filepath.Join(dir, "ladder")
	if err := os.Mkdir(ladderDir, 0o755); err != nil {
		return nil, err
	}
	if err := runLadder(w.ladder, in, ladderDir, m); err != nil {
		return nil, err
	}
	path := filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
	if err := spans.writeChrome(path, w.name); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	r := newReport()
	r.out.Attempted = plain.out.Attempted + traced.out.Attempted
	r.out.Failed = plain.out.Failed + traced.out.Failed
	r.out.Correct = plain.out.Correct && traced.out.Correct
	r.notes = append(plain.notes, traced.notes...)
	r.lateness = plain.lateness
	for _, d := range layerDefs {
		r.set(d.name, d.unit, m[d.name], 1)
	}
	return r, nil
}
