package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The SLO engine turns the per-command request stream into rolling
// error-budget accounting. Each command gets a RED series (rate,
// errors, duration) in three exponentially-decayed windows — 1m, 5m,
// 1h — against configurable latency and availability objectives. The
// headline number is the burn rate: the fraction of requests that
// violated the objective, divided by the budget the objective allows
// (1 - availability). Burn 1.0 spends the error budget exactly as
// fast as it refills; burn 10 exhausts a 30-day budget in 3 days.
// Threshold crossings are published onto the event bus with
// hysteresis, so a flapping series does not spam the timeline.
//
// Windows are exponential decays rather than stepped buckets: a
// counter decayed with time constant τ holds ≈ rate·τ at steady
// state, so dividing by τ recovers the windowed rate with O(1) state
// and no bucket rotation. Decay is applied lazily, only when a
// counter is touched or read.

// Windows are the fixed SLO horizons, shortest first.
var Windows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// WindowName renders a window duration as its report label.
func WindowName(d time.Duration) string {
	switch d {
	case time.Minute:
		return "1m"
	case 5 * time.Minute:
		return "5m"
	case time.Hour:
		return "1h"
	}
	return d.String()
}

// Objectives configures the SLO engine. The zero value of a field
// selects its default.
type Objectives struct {
	// Availability is the target fraction of good requests
	// (default 0.999). The error budget is 1 - Availability.
	Availability float64 `json:"availability"`
	// LatencyQuantile and LatencyUS set the latency objective: the
	// LatencyQuantile-th quantile must stay under LatencyUS
	// microseconds. LatencyUS 0 disables the latency objective;
	// LatencyQuantile defaults to 0.99. Requests over the objective
	// count against the error budget alongside hard failures.
	LatencyQuantile float64 `json:"latencyQuantile"`
	LatencyUS       int64   `json:"latencyUs"`
	// BurnAlert is the burn rate that raises an EventSLOBurn on the
	// bus (default 2). The alert clears below BurnAlert/2.
	BurnAlert float64 `json:"burnAlert"`
}

func (o Objectives) withDefaults() Objectives {
	if o.Availability <= 0 || o.Availability >= 1 {
		o.Availability = 0.999
	}
	if o.LatencyQuantile <= 0 || o.LatencyQuantile >= 1 {
		o.LatencyQuantile = 0.99
	}
	if o.BurnAlert <= 0 {
		o.BurnAlert = 2
	}
	return o
}

// latBuckets mirrors internal/metrics: log2 latency buckets, bucket i
// covering durations whose microsecond count has bit length i.
const latBuckets = 48

func latBucketOf(us int64) int {
	if us < 0 {
		us = 0
	}
	n := 0
	for us > 0 {
		us >>= 1
		n++
	}
	if n >= latBuckets {
		n = latBuckets - 1
	}
	return n
}

// latBucketBound returns the inclusive upper bound of bucket i, in
// microseconds.
func latBucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1<<i - 1
}

// decayed is an exponentially-decayed counter. Decay is lazy: applied
// when the counter is bumped or read, using its own last-touch time.
type decayed struct {
	v    float64
	last time.Time
}

func (d *decayed) bump(now time.Time, tau float64, x float64) {
	d.v = d.value(now, tau) + x
	d.last = now
}

func (d *decayed) value(now time.Time, tau float64) float64 {
	if d.v == 0 {
		return 0
	}
	if dt := now.Sub(d.last).Seconds(); dt > 0 {
		return d.v * math.Exp(-dt/tau)
	}
	return d.v
}

// window is one command's RED series over one decay horizon.
type window struct {
	reqs, errs, slow decayed
	lat              [latBuckets]decayed
	alerting         bool // burn alert currently raised
}

// series is one command's full SLO state.
type series struct {
	win [3]window
}

// Engine maintains per-command SLO series and publishes burn-rate
// threshold crossings onto a bus. All methods are safe on a nil
// engine and for concurrent use.
type Engine struct {
	obj Objectives
	bus *Bus
	now func() time.Time // test hook

	mu   sync.Mutex
	cmds map[string]*series
}

// NewEngine returns an SLO engine with the given objectives,
// publishing threshold crossings to bus (nil for none).
func NewEngine(obj Objectives, bus *Bus) *Engine {
	return &Engine{
		obj:  obj.withDefaults(),
		bus:  bus,
		now:  time.Now,
		cmds: map[string]*series{},
	}
}

// Objectives returns the engine's resolved objectives.
func (e *Engine) Objectives() Objectives {
	if e == nil {
		return Objectives{}
	}
	return e.obj
}

// Record folds one completed request into the command's series and
// evaluates burn-rate crossings. A request is bad if it failed or —
// when a latency objective is set — ran over it.
func (e *Engine) Record(cmd string, dur time.Duration, err error) {
	if e == nil {
		return
	}
	now := e.now()
	us := dur.Microseconds()
	bad := err != nil
	slow := e.obj.LatencyUS > 0 && us > e.obj.LatencyUS
	bkt := latBucketOf(us)

	type crossing struct {
		ev   Event
		want bool
	}
	var crossings []crossing

	e.mu.Lock()
	s := e.cmds[cmd]
	if s == nil {
		s = &series{}
		e.cmds[cmd] = s
	}
	for i, wdur := range Windows {
		w := &s.win[i]
		tau := wdur.Seconds()
		w.reqs.bump(now, tau, 1)
		if bad {
			w.errs.bump(now, tau, 1)
		}
		if slow && !bad {
			w.slow.bump(now, tau, 1)
		}
		w.lat[bkt].bump(now, tau, 1)

		reqs := w.reqs.value(now, tau)
		if reqs < 5 {
			continue // not enough mass to judge; avoids cold-start flap
		}
		burn := e.burn(w, now, tau)
		switch {
		case !w.alerting && burn >= e.obj.BurnAlert:
			w.alerting = true
			crossings = append(crossings, crossing{Event{
				Type:  EventSLOBurn,
				Shard: -1,
				Cmd:   cmd,
				Cause: WindowName(wdur),
				Value: int64(burn * 1000),
			}, true})
		case w.alerting && burn < e.obj.BurnAlert/2:
			w.alerting = false
			crossings = append(crossings, crossing{Event{
				Type:  EventSLOOK,
				Shard: -1,
				Cmd:   cmd,
				Cause: WindowName(wdur),
				Value: int64(burn * 1000),
			}, false})
		}
	}
	e.mu.Unlock()

	for _, c := range crossings {
		e.bus.Publish(c.ev)
	}
}

// burn computes the window's burn rate. Caller holds e.mu.
func (e *Engine) burn(w *window, now time.Time, tau float64) float64 {
	reqs := w.reqs.value(now, tau)
	if reqs == 0 {
		return 0
	}
	bad := w.errs.value(now, tau) + w.slow.value(now, tau)
	budget := 1 - e.obj.Availability
	return (bad / reqs) / budget
}

// quantile returns the q-th latency quantile of the window in
// microseconds, by walking the decayed bucket mass. Caller holds e.mu.
func (w *window) quantile(q float64, now time.Time, tau float64) int64 {
	var total float64
	var vals [latBuckets]float64
	for i := range w.lat {
		vals[i] = w.lat[i].value(now, tau)
		total += vals[i]
	}
	if total == 0 {
		return 0
	}
	target := q * total
	var cum float64
	for i, v := range vals {
		cum += v
		if cum >= target {
			return latBucketBound(i)
		}
	}
	return latBucketBound(latBuckets - 1)
}

// WindowStats is one command's SLO readout over one window.
type WindowStats struct {
	Window string `json:"window"`
	// Rate is the windowed request rate in milli-requests/sec (wire
	// and JSON stay integer-friendly).
	RateMilli int64 `json:"rateMilli"`
	// ErrMilli and SlowMilli are the bad-request fractions in
	// milli-units (errors/requests, slow/requests).
	ErrMilli  int64 `json:"errMilli"`
	SlowMilli int64 `json:"slowMilli"`
	// QuantileUS is the objective quantile's latency, microseconds.
	QuantileUS int64 `json:"quantileUs"`
	// BurnMilli is the error-budget burn rate in milli-units; 1000
	// spends budget exactly as fast as it refills.
	BurnMilli int64 `json:"burnMilli"`
	// Alerting reports whether the burn alert is currently raised.
	Alerting bool `json:"alerting,omitempty"`
}

// CommandSLO is one command's readout across all windows.
type CommandSLO struct {
	Cmd     string        `json:"cmd"`
	Windows []WindowStats `json:"windows"`
}

// Report is the full SLO snapshot served by /slo and the INFO slo wire
// command.
type Report struct {
	Objectives Objectives   `json:"objectives"`
	Commands   []CommandSLO `json:"commands"`
}

// Report snapshots every command's series, sorted by command name.
func (e *Engine) Report() Report {
	if e == nil {
		return Report{}
	}
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := Report{Objectives: e.obj}
	names := make([]string, 0, len(e.cmds))
	for name := range e.cmds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := e.cmds[name]
		c := CommandSLO{Cmd: name}
		for i, wdur := range Windows {
			w := &s.win[i]
			tau := wdur.Seconds()
			reqs := w.reqs.value(now, tau)
			ws := WindowStats{
				Window:     WindowName(wdur),
				RateMilli:  int64(reqs / tau * 1000),
				QuantileUS: w.quantile(e.obj.LatencyQuantile, now, tau),
				BurnMilli:  int64(e.burn(w, now, tau) * 1000),
				Alerting:   w.alerting,
			}
			if reqs > 0 {
				ws.ErrMilli = int64(w.errs.value(now, tau) / reqs * 1000)
				ws.SlowMilli = int64(w.slow.value(now, tau) / reqs * 1000)
			}
			c.Windows = append(c.Windows, ws)
		}
		rep.Commands = append(rep.Commands, c)
	}
	return rep
}
