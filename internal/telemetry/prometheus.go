// Package telemetry exports the wave-index runtime's observability over
// HTTP and standard interchange formats: the internal/metrics registry
// rendered as Prometheus text exposition, the work ledger as labelled
// per-cause series, journal/degradation state as a health endpoint,
// pprof profiling, and completed Tracer spans as Chrome trace_event
// JSON (chrome://tracing / Perfetto). The paper's evaluation is a
// five-measure cost accounting; this package is how a live index keeps
// publishing those measures instead of printing them once.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"waveindex/internal/metrics"
	"waveindex/internal/obs"
	"waveindex/internal/simdisk"
)

// MetricsContentType is the content type of the Prometheus text
// exposition format version this package renders.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabel escapes a label value per the Prometheus text exposition
// rules: backslash, double quote, and newline must be backslash-escaped
// inside the quoted value. (fmt's %q escapes Go-style — close enough to
// look right, wrong enough to break scrapes on multi-byte or control
// characters — so the exposition writers below must not use it.)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// help writes a metric family's # HELP and # TYPE header.
func help(w io.Writer, name, kind, text string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, text, name, kind)
	return err
}

// WriteMetrics renders a registry snapshot in Prometheus text exposition
// format: counters and gauges as single samples, histograms as
// cumulative le-bucketed series with _sum and _count, each family led by
// # HELP/# TYPE headers. Observations in the registry's unbounded last
// bucket (metrics.InfBound) appear only under le="+Inf".
func WriteMetrics(w io.Writer, s metrics.Snapshot) error {
	for _, c := range s.Counters {
		if err := help(w, c.Name, "counter", "wave-index registry counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := help(w, g.Name, "gauge", "wave-index registry gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := help(w, h.Name, "histogram", "wave-index registry histogram (log2 buckets)"); err != nil {
			return err
		}
		var cum int64
		for _, b := range h.Buckets {
			if b.Le >= metrics.InfBound {
				// The unbounded bucket has no finite le; its counts are
				// covered by the +Inf sample below.
				continue
			}
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.Name, b.Le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			h.Name, h.Count, h.Name, h.Sum, h.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteShardMetrics renders per-shard registry snapshots as labelled
// Prometheus series: each counter and gauge family is re-exported under
// a "shard_" prefix with one {shard="i"} sample per shard (0-based, the
// router's shard numbering). The fleet-level rollup keeps the unprefixed
// names, so both views coexist in one exposition without duplicate
// family definitions. Histograms are served only at fleet level.
func WriteShardMetrics(w io.Writer, snaps []metrics.Snapshot) error {
	families := func(names func(metrics.Snapshot) []string, kind string, value func(metrics.Snapshot, string) int64) error {
		seen := map[string]bool{}
		var union []string
		for _, s := range snaps {
			for _, n := range names(s) {
				if !seen[n] {
					seen[n] = true
					union = append(union, n)
				}
			}
		}
		sort.Strings(union)
		for _, n := range union {
			if err := help(w, "shard_"+n, kind, "per-shard breakdown of "+n); err != nil {
				return err
			}
			for i, s := range snaps {
				if _, err := fmt.Fprintf(w, "shard_%s{shard=\"%d\"} %d\n", n, i, value(s, n)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := families(func(s metrics.Snapshot) []string {
		out := make([]string, len(s.Counters))
		for i, c := range s.Counters {
			out[i] = c.Name
		}
		return out
	}, "counter", func(s metrics.Snapshot, n string) int64 { return s.Counter(n) })
	if err != nil {
		return err
	}
	return families(func(s metrics.Snapshot) []string {
		out := make([]string, len(s.Gauges))
		for i, g := range s.Gauges {
			out[i] = g.Name
		}
		return out
	}, "gauge", func(s metrics.Snapshot, n string) int64 { return s.Gauge(n) })
}

// WriteWork renders a work ledger as labelled Prometheus series: one
// {cause="..."} sample per ledger row for seeks, bytes moved, and
// simulated disk time. Rows are rendered in a stable order.
func WriteWork(w io.Writer, rows []simdisk.CauseStats) error {
	rows = append([]simdisk.CauseStats(nil), rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cause < rows[j].Cause })
	families := []struct {
		name, help string
		value      func(simdisk.CauseStats) int64
	}{
		{"work_seeks_total", "simulated disk seeks by cause", func(r simdisk.CauseStats) int64 { return r.Seeks }},
		{"work_bytes_read_total", "simulated bytes read by cause", func(r simdisk.CauseStats) int64 { return r.BytesRead }},
		{"work_bytes_written_total", "simulated bytes written by cause", func(r simdisk.CauseStats) int64 { return r.BytesWritten }},
		{"work_sim_us_total", "simulated disk time by cause, microseconds", func(r simdisk.CauseStats) int64 { return r.SimTime.Microseconds() }},
	}
	for _, f := range families {
		if err := help(w, f.name, "counter", f.help); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "%s{cause=\"%s\"} %d\n", f.name, escapeLabel(r.Cause.String()), f.value(r)); err != nil {
				return err
			}
		}
	}
	return nil
}

// BreakerStatus is one shard's circuit-breaker state as the admin
// server renders it. It mirrors wave/shard's BreakerInfo without
// importing it, keeping telemetry decoupled from the router.
type BreakerStatus struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"` // "closed", "open", or "half-open"
	Failures int    `json:"failures"`
}

// breakerStateValue maps breaker states onto a stable numeric gauge
// scale: 0 closed, 1 half-open, 2 open — higher is worse, so alerting
// thresholds compose (`> 0` = anything wrong, `> 1` = serving partial).
func breakerStateValue(state string) int64 {
	switch state {
	case "closed":
		return 0
	case "half-open":
		return 1
	case "open":
		return 2
	default:
		return -1
	}
}

// WriteBreakers renders per-shard circuit-breaker states as labelled
// Prometheus series: a numeric state gauge (see breakerStateValue) and
// the consecutive-failure count feeding each breaker's threshold.
func WriteBreakers(w io.Writer, rows []BreakerStatus) error {
	if len(rows) == 0 {
		return nil
	}
	rows = append([]BreakerStatus(nil), rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Shard < rows[j].Shard })
	if err := help(w, "shard_breaker_state", "gauge", "circuit breaker position: 0 closed, 1 half-open, 2 open"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "shard_breaker_state{shard=\"%d\"} %d\n", r.Shard, breakerStateValue(r.State)); err != nil {
			return err
		}
	}
	if err := help(w, "shard_breaker_failures", "gauge", "consecutive failures counted toward the breaker threshold"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "shard_breaker_failures{shard=\"%d\"} %d\n", r.Shard, int64(r.Failures)); err != nil {
			return err
		}
	}
	return nil
}

// WriteSLO renders an SLO report as Prometheus series: windowed request
// rate, bad-request ratios, the objective quantile's latency, and the
// error-budget burn rate, labelled by command and window. Burn is the
// headline series — slo_burn_ratio > the configured alert threshold is
// exactly the condition that raises slo.burn events on the bus.
func WriteSLO(w io.Writer, rep obs.Report) error {
	families := []struct {
		name, help string
		value      func(obs.WindowStats) float64
	}{
		{"slo_request_rate", "windowed request rate, requests/sec", func(ws obs.WindowStats) float64 { return float64(ws.RateMilli) / 1000 }},
		{"slo_error_ratio", "windowed fraction of failed requests", func(ws obs.WindowStats) float64 { return float64(ws.ErrMilli) / 1000 }},
		{"slo_slow_ratio", "windowed fraction of requests over the latency objective", func(ws obs.WindowStats) float64 { return float64(ws.SlowMilli) / 1000 }},
		{"slo_latency_quantile_us", "objective quantile latency, microseconds", func(ws obs.WindowStats) float64 { return float64(ws.QuantileUS) }},
		{"slo_burn_ratio", "error-budget burn rate (1 = spending budget exactly at refill rate)", func(ws obs.WindowStats) float64 { return float64(ws.BurnMilli) / 1000 }},
	}
	for _, f := range families {
		if err := help(w, f.name, "gauge", f.help); err != nil {
			return err
		}
		for _, c := range rep.Commands {
			for _, ws := range c.Windows {
				if _, err := fmt.Fprintf(w, "%s{cmd=\"%s\",window=\"%s\"} %g\n",
					f.name, escapeLabel(c.Cmd), escapeLabel(ws.Window), f.value(ws)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
