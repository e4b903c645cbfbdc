package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/telemetry"
)

// spanCollector is the traced run's tracer. It keeps the most recent
// spans in a telemetry.SpanSink for Chrome-trace export and folds every
// span into per-layer aggregates as it arrives, so a long run needs no
// unbounded span buffer.
type spanCollector struct {
	sink *telemetry.SpanSink

	mu sync.Mutex
	// children holds each in-flight request's probe.constituent
	// intervals, keyed by shard and trace ID, until its probe span ends.
	children map[string][]interval
	probe    struct {
		n                int
		total, self      time.Duration
		constituentSpans int
	}
	// scan spans are kept whole: scan.constituent spans may end after
	// the scan they belong to, so scans are matched at the end.
	scans []core.TraceEvent
	kinds map[string]time.Duration // total duration per span kind
	count map[string]int
	// work[day][shard] is the transition.work time of one shard's day.
	work map[int]map[int]time.Duration
}

type interval struct{ start, end time.Time }

func newSpanCollector() *spanCollector {
	return &spanCollector{
		sink:     telemetry.NewSpanSink(1 << 15),
		children: map[string][]interval{},
		kinds:    map[string]time.Duration{},
		count:    map[string]int{},
		work:     map[int]map[int]time.Duration{},
	}
}

func spanKey(ev core.TraceEvent) string { return strconv.Itoa(ev.Shard) + "|" + ev.TraceID }

// TraceEvent implements core.Tracer.
func (c *spanCollector) TraceEvent(ev core.TraceEvent) {
	c.sink.TraceEvent(ev)
	if strings.HasPrefix(ev.Kind, "transition.") && ev.Day == 0 {
		return // the initial build (Start), not a day's transition
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kinds[ev.Kind] += ev.Duration
	c.count[ev.Kind]++
	switch ev.Kind {
	case "probe.constituent":
		k := spanKey(ev)
		c.children[k] = append(c.children[k], interval{ev.Start, ev.Start.Add(ev.Duration)})
	case "probe":
		k := spanKey(ev)
		kids := c.children[k]
		delete(c.children, k)
		c.probe.n++
		c.probe.total += ev.Duration
		c.probe.self += ev.Duration - coverage(kids, ev.Start, ev.Start.Add(ev.Duration))
		c.probe.constituentSpans += len(kids)
	case "scan", "scan.constituent":
		c.scans = append(c.scans, ev)
	case "transition.work":
		if c.work[ev.Day] == nil {
			c.work[ev.Day] = map[int]time.Duration{}
		}
		c.work[ev.Day][ev.Shard] += ev.Duration
	}
}

// reset drops the aggregates (not the retained spans), so the per-layer
// numbers cover only what follows: the timed phase, not set-up.
func (c *spanCollector) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.children = map[string][]interval{}
	c.probe.n, c.probe.total, c.probe.self, c.probe.constituentSpans = 0, 0, 0, 0
	c.scans = nil
	c.kinds = map[string]time.Duration{}
	c.count = map[string]int{}
	c.work = map[int]map[int]time.Duration{}
}

// coverage returns how much of [from, to] the intervals cover.
func coverage(ivs []interval, from, to time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	cur := from
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(to) {
			e = to
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// meanOf returns the mean duration of a span kind, or 0.
func (c *spanCollector) meanOf(kind string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count[kind] == 0 {
		return 0
	}
	return c.kinds[kind] / time.Duration(c.count[kind])
}

// countOf returns how many spans of a kind arrived.
func (c *spanCollector) countOf(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count[kind]
}

// probeStats returns the mean probe span, its self time (minus the
// part its constituent probes cover) and constituents per probe.
func (c *spanCollector) probeStats() (mean, self time.Duration, perProbe float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.probe.n == 0 {
		return 0, 0, 0
	}
	n := time.Duration(c.probe.n)
	return c.probe.total / n, c.probe.self / n, float64(c.probe.constituentSpans) / float64(c.probe.n)
}

// scanSelf returns the mean scan span minus the part its constituent
// scans cover.
func (c *spanCollector) scanSelf() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	kids := map[string][]interval{}
	for _, ev := range c.scans {
		if ev.Kind == "scan.constituent" {
			kids[spanKey(ev)] = append(kids[spanKey(ev)], interval{ev.Start, ev.Start.Add(ev.Duration)})
		}
	}
	var self time.Duration
	n := 0
	for _, ev := range c.scans {
		if ev.Kind == "scan" {
			self += ev.Duration - coverage(kids[spanKey(ev)], ev.Start, ev.Start.Add(ev.Duration))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return self / time.Duration(n)
}

// addDaySkew returns the mean over days of the busiest shard's
// transition.work time divided by the shards' mean.
func (c *spanCollector) addDaySkew() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum, n := 0.0, 0
	for _, byShard := range c.work {
		var total, busiest time.Duration
		for _, d := range byShard {
			total += d
			if d > busiest {
				busiest = d
			}
		}
		if total > 0 {
			sum += float64(busiest) / (float64(total) / float64(len(byShard)))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// writeChrome exports the retained spans with the telemetry encoder.
func (c *spanCollector) writeChrome(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.sink.WriteChrome(f, name); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
