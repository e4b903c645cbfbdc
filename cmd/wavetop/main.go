// Command wavetop is a live operator console for a waved server — the
// terminal view of the observability plane the daemon always runs.
// It polls the line protocol (WINDOW and the INFO health, slo, shards
// and events documents) and renders one screenful: fleet health and window
// bounds, per-command SLO windows with error-budget burn, per-shard
// query rates, latency quantiles and breaker positions, and the tail
// of the fleet event timeline.
//
// Usage:
//
//	wavetop [-addr localhost:7070] [-interval 2s] [-events 12] [-once]
//
// By default wavetop redraws a full-screen view every -interval using
// ANSI positioning. With -once it prints a single plain frame and
// exits — scriptable, diffable, and what the smoke tests drive.
//
// Per-shard QPS is the delta of the shard's query counters between two
// consecutive polls divided by the poll gap, so the first frame shows
// 0.0 (there is no previous frame yet); latency columns are the
// cumulative p99 of the shard's probe and scan histograms; HIT% is the
// shard's result-cache hit ratio ("-" when caching is off). The event
// pane keeps its own INFO events cursor, so events stream across frames
// without re-reading the whole ring.
//
// If waved restarts between polls its counters reset and the event bus
// renumbers from 1. wavetop detects both — a query counter moving
// backwards, or the events cursor landing past the server's newest
// sequence — clamps the affected QPS deltas at 0 instead of rendering
// negative rates, resyncs the cursor, and marks the frame RESTARTED.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"waveindex/internal/metrics"
	"waveindex/internal/obs"
	"waveindex/internal/server"
	"waveindex/internal/telemetry"
)

// frame is one polled snapshot of the server, everything render needs.
// Poll errors are carried in-band so a dying server renders as a
// banner instead of killing the console.
type frame struct {
	addr string
	now  time.Time

	health   telemetry.Health
	from, to int
	ready    bool

	slo    obs.Report
	shards telemetry.Shards
	qps    []float64 // per-shard, aligned with shards.Shards; 0 on first frame

	events  []obs.Event // tail of the timeline, oldest first
	dropped uint64      // events lost to the ring since the last poll

	// restarted marks a frame where waved restarted since the previous
	// poll: a query counter moved backwards or the events cursor was
	// ahead of the server's newest sequence.
	restarted bool

	err error
}

// poller accumulates cross-frame state: the events cursor, the
// retained event tail, and the previous query totals for QPS deltas.
type poller struct {
	c         *server.Client
	addr      string
	maxEvents int

	cursor  uint64
	tail    []obs.Event
	prev    map[int]int64 // shard → cumulative query count
	prevAt  time.Time
	dropped uint64
}

// queryTotal sums a shard's query counters — the numerator of its QPS.
func queryTotal(m metrics.Snapshot) int64 {
	return m.Counter("query_probe_total") + m.Counter("query_mprobe_total") + m.Counter("query_scan_total")
}

// hitRatio returns the shard's result-cache hit percentage, or -1 when
// caching is off or has seen no lookups yet (the cache_* gauges are
// only exported while the cache is enabled).
func hitRatio(sm metrics.Snapshot) float64 {
	h, m := sm.Gauge("cache_result_hits"), sm.Gauge("cache_result_misses")
	if h+m <= 0 {
		return -1
	}
	return 100 * float64(h) / float64(h+m)
}

// poll gathers one frame. The first error aborts the poll and is
// rendered as a banner; cross-frame state is only advanced on success.
func (p *poller) poll() frame {
	f := frame{addr: p.addr, now: time.Now()}
	if f.err = p.c.Info("health", &f.health); f.err != nil {
		return f
	}
	if f.from, f.to, f.ready, f.err = p.c.Window(); f.err != nil {
		return f
	}
	if f.err = p.c.Info("slo", &f.slo); f.err != nil {
		return f
	}
	if f.err = p.c.Info("shards", &f.shards); f.err != nil {
		return f
	}
	var page telemetry.EventsPage
	if f.err = p.c.Info("events", &page, fmt.Sprintf("since=%d", p.cursor)); f.err != nil {
		return f
	}
	if page.Last < p.cursor {
		// The bus renumbered from 1 — waved restarted. Adopting the
		// server's cursor resyncs the stream; the old one would never
		// match a future sequence and the pane would wedge empty.
		f.restarted = true
	}
	p.cursor = page.Last
	p.dropped += page.Dropped
	p.tail = append(p.tail, page.Events...)
	if len(p.tail) > p.maxEvents {
		p.tail = append(p.tail[:0:0], p.tail[len(p.tail)-p.maxEvents:]...)
	}
	f.events, f.dropped = p.tail, p.dropped

	f.qps = make([]float64, len(f.shards.Shards))
	now := f.now
	if p.prev != nil {
		dt := now.Sub(p.prevAt).Seconds()
		for i, sm := range f.shards.Shards {
			if prev, ok := p.prev[i]; ok && dt > 0 {
				d := queryTotal(sm) - prev
				if d < 0 {
					// Counters reset under us — waved restarted between
					// polls. A negative rate is meaningless; show 0 and
					// flag the frame.
					d = 0
					f.restarted = true
				}
				f.qps[i] = float64(d) / dt
			}
		}
	}
	p.prev = map[int]int64{}
	for i, sm := range f.shards.Shards {
		p.prev[i] = queryTotal(sm)
	}
	p.prevAt = now
	return f
}

// render draws one frame as plain text. It is a pure function of the
// frame, which is what makes the console testable without a terminal.
func render(f frame) string {
	var b strings.Builder
	fmt.Fprintf(&b, "wavetop — %s%*s%s\n", f.addr,
		max(1, 62-len(f.addr)), "", f.now.Format("2006-01-02 15:04:05"))
	if f.err != nil {
		fmt.Fprintf(&b, "\n  POLL FAILED: %v\n", f.err)
		return b.String()
	}
	ready := "not ready"
	if f.ready {
		ready = "ready"
	}
	restarted := ""
	if f.restarted {
		restarted = "  RESTARTED"
	}
	fmt.Fprintf(&b, "status %s  %s  window [%d,%d]  breakers open %d  events dropped %d%s\n",
		f.health.Status, ready, f.from, f.to, f.health.OpenBreakers, f.dropped, restarted)

	o := f.slo.Objectives
	fmt.Fprintf(&b, "\nSLO  availability %.4g%%", o.Availability*100)
	if o.LatencyUS > 0 {
		fmt.Fprintf(&b, "  p%g < %dµs", o.LatencyQuantile*100, o.LatencyUS)
	}
	fmt.Fprintf(&b, "  burn alert ≥ %.3g×\n", o.BurnAlert)
	fmt.Fprintf(&b, "  %-10s %-4s %9s %6s %6s %9s %7s %s\n",
		"CMD", "WIN", "RATE/S", "ERR‰", "SLOW‰", "P-LAT µs", "BURN", "ALERT")
	for _, c := range f.slo.Commands {
		for _, w := range c.Windows {
			alert := ""
			if w.Alerting {
				alert = "ALERT"
			}
			fmt.Fprintf(&b, "  %-10s %-4s %9.3f %6d %6d %9d %7.2f %s\n",
				c.Cmd, w.Window, float64(w.RateMilli)/1000,
				w.ErrMilli, w.SlowMilli, w.QuantileUS,
				float64(w.BurnMilli)/1000, alert)
		}
	}
	if len(f.slo.Commands) == 0 {
		fmt.Fprintf(&b, "  (no traffic yet)\n")
	}

	fmt.Fprintf(&b, "\nSHARDS\n  %-5s %9s %12s %12s %6s %10s %s\n",
		"ID", "QPS", "PROBE p99µs", "SCAN p99µs", "HIT%", "BREAKER", "FAILS")
	brk := map[int]telemetry.BreakerStatus{}
	for _, bs := range f.shards.Breakers {
		brk[bs.Shard] = bs
	}
	for i, sm := range f.shards.Shards {
		qps := 0.0
		if i < len(f.qps) {
			qps = f.qps[i]
		}
		state := brk[i].State
		if state == "" {
			state = "-"
		}
		hit := "-"
		if r := hitRatio(sm); r >= 0 {
			hit = fmt.Sprintf("%.1f", r)
		}
		fmt.Fprintf(&b, "  %-5d %9.1f %12d %12d %6s %10s %d\n",
			i, qps,
			sm.Histogram("query_probe_us").Quantile(0.99),
			sm.Histogram("query_scan_us").Quantile(0.99),
			hit, state, brk[i].Failures)
	}

	fmt.Fprintf(&b, "\nEVENTS (last %d)\n", len(f.events))
	for _, ev := range f.events {
		fmt.Fprintf(&b, "  %6d %s %-18s %s\n",
			ev.Seq, ev.Time.Format("15:04:05.000"), ev.Type, eventDetail(ev))
	}
	if len(f.events) == 0 {
		fmt.Fprintf(&b, "  (none)\n")
	}
	return b.String()
}

// eventDetail compresses an event's populated fields into one column.
func eventDetail(ev obs.Event) string {
	var parts []string
	if ev.Shard >= 0 {
		parts = append(parts, fmt.Sprintf("shard=%d", ev.Shard))
	}
	if ev.Cmd != "" {
		parts = append(parts, "cmd="+ev.Cmd)
	}
	if ev.Phase != "" {
		parts = append(parts, "phase="+ev.Phase)
	}
	if ev.Cause != "" {
		parts = append(parts, "cause="+ev.Cause)
	}
	if ev.Day != 0 {
		parts = append(parts, fmt.Sprintf("day=%d", ev.Day))
	}
	if ev.Ops != 0 {
		parts = append(parts, fmt.Sprintf("ops=%d", ev.Ops))
	}
	if ev.DurationUS != 0 {
		parts = append(parts, fmt.Sprintf("us=%d", ev.DurationUS))
	}
	if ev.Value != 0 {
		parts = append(parts, fmt.Sprintf("value=%d", ev.Value))
	}
	if ev.TraceID != "" {
		parts = append(parts, "trace="+ev.TraceID)
	}
	for k, v := range ev.Fields {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, " ")
}

func main() {
	addr := flag.String("addr", "localhost:7070", "waved server address")
	interval := flag.Duration("interval", 2*time.Second, "poll and redraw interval")
	maxEvents := flag.Int("events", 12, "timeline events kept on screen")
	once := flag.Bool("once", false, "print a single plain frame and exit")
	flag.Parse()

	c, err := server.Dial(*addr)
	if err != nil {
		log.Fatalf("wavetop: %v", err)
	}
	defer c.Close()
	p := &poller{c: c, addr: *addr, maxEvents: *maxEvents}

	if *once {
		f := p.poll()
		fmt.Print(render(f))
		if f.err != nil {
			os.Exit(1)
		}
		return
	}
	// Full-screen loop: clear + home each tick. \x1b[H\x1b[2J keeps the
	// dependency budget at zero — no curses, no termios.
	for {
		f := p.poll()
		fmt.Print("\x1b[H\x1b[2J" + render(f))
		time.Sleep(*interval)
	}
}
