package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// failLatency is the latency a failed or wrong operation is recorded
// with: the client's per-operation timeout, so it misses every limit a
// percentile could be held to.
const failLatency = opTimeout

// percentile returns the p-th percentile (0 < p <= 100) of samples,
// interpolating linearly between the closest ranks, and the sample
// count. It returns (0, 0) for no samples.
func percentile(samples []float64, p float64) (float64, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	if lo >= n-1 {
		return s[n-1], n
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), n
}

// median is percentile 50 without the count.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// sample is one operation: the slice of the timed phase it ran in
// (see subWindows; -1 after the timed phase) and its latency in
// microseconds.
type sample struct {
	slice int32
	us    float64
}

// opLog records one client's operations: per-class samples (failed ops
// enter at failLatency), attempts, failures, and oracle mismatches. One
// goroutine owns each opLog; logs are merged after the goroutines
// finish.
type opLog struct {
	slice      int32 // slice of the timed phase now running
	lat        map[string][]sample
	attempted  int64
	failed     int64
	mismatched int64
	notes      []string // first few failure descriptions
}

func newOpLog() *opLog { return &opLog{lat: map[string][]sample{}} }

func (l *opLog) add(op string, us float64) {
	l.attempted++
	l.lat[op] = append(l.lat[op], sample{slice: l.slice, us: us})
}

// ok records a successful, correct operation.
func (l *opLog) ok(op string, d time.Duration) { l.add(op, float64(d.Nanoseconds())/1e3) }

// fail records an operation that returned an error.
func (l *opLog) fail(op string, err error) {
	l.add(op, float64(failLatency.Nanoseconds())/1e3)
	l.failed++
	l.note(fmt.Sprintf("%s: %v", op, err))
}

// mismatch records an operation whose answer disagreed with the oracle.
func (l *opLog) mismatch(op, detail string) {
	l.add(op, float64(failLatency.Nanoseconds())/1e3)
	l.failed++
	l.mismatched++
	l.note(fmt.Sprintf("%s: wrong answer: %s", op, detail))
}

func (l *opLog) note(s string) {
	if len(l.notes) < 5 {
		l.notes = append(l.notes, s)
	}
}

// merge folds o into l.
func (l *opLog) merge(o *opLog) {
	for k, v := range o.lat {
		l.lat[k] = append(l.lat[k], v...)
	}
	l.attempted += o.attempted
	l.failed += o.failed
	l.mismatched += o.mismatched
	for _, s := range o.notes {
		l.note(s)
	}
}

// meanUS returns the mean latency of op in microseconds, or 0.
func (l *opLog) meanUS(op string) float64 {
	ss := l.lat[op]
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += s.us
	}
	return sum / float64(len(ss))
}

// subWindows is how many slices the timed phase is cut into. A
// statistic with enough samples is taken per slice and the median of
// the slices reported, so a few seconds of interference from outside
// the process move it less than they would move one whole-run value.
const subWindows = 10

// latency returns the q-th percentile of op's latencies in
// microseconds and the sample count. When every slice of the timed
// phase holds at least ten samples beyond the percentile, it is the
// median of the per-slice percentiles; otherwise it is taken over all
// samples.
func (l *opLog) latency(op string, q float64) (float64, int) {
	ss := l.lat[op]
	all := make([]float64, len(ss))
	slices := make([][]float64, subWindows)
	for i, s := range ss {
		all[i] = s.us
		if s.slice >= 0 {
			slices[s.slice] = append(slices[s.slice], s.us)
		}
	}
	need := int(math.Ceil(10 / (1 - q/100)))
	var per []float64
	for _, sl := range slices {
		if len(sl) < need {
			v, n := percentile(all, q)
			return v, n
		}
		v, _ := percentile(sl, q)
		per = append(per, v)
	}
	return median(per), len(all)
}

// rate returns the median over the timed phase's slices of op's
// successful completions per second, given the time each slice spent on
// op's load, and the completions in total.
func (l *opLog) rate(op string, busy [subWindows]time.Duration) (float64, int) {
	counts := make([]float64, subWindows)
	total := 0
	for _, s := range l.lat[op] {
		if s.us >= float64(failLatency.Nanoseconds())/1e3 {
			continue
		}
		total++
		if s.slice >= 0 {
			counts[s.slice]++
		}
	}
	for i := range counts {
		if busy[i] > 0 {
			counts[i] /= busy[i].Seconds()
		}
	}
	return median(counts), total
}

// heapSampler polls the live heap size and keeps its peak.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64 // written by the polling goroutine, read after it ends
}

const heapMetric = "/gc/heap/live:bytes"

// startHeapSampler polls every 5ms until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends the sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters snapshots the runtime's cumulative GC CPU time, total
// CPU time and allocated bytes.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocBytes: s[2].Value.Uint64()}
}
