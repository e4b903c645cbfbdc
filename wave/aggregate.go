package wave

import (
	"container/heap"
	"context"
	"sort"

	"waveindex/internal/core"
)

// This file provides windowed aggregation helpers built on segment scans —
// the paper's TimedSegmentScan use cases (sum/min/max aggregates, §2).
// With a result cache installed (Config.CacheResults) the counting
// aggregates answer from per-constituent memoized partials instead of
// re-scanning; the scan-derived path remains the reference behaviour
// and the two are result-identical (the memoized partials are produced
// by the same per-constituent scans the merge would have visited).

// Count returns the number of entries in the window.
func (x *Index) Count(ctx context.Context) (int, error) {
	from, to := x.Window()
	return x.CountRange(ctx, from, to)
}

// CountRange counts entries inserted between day from and to.
func (x *Index) CountRange(ctx context.Context, from, to int) (int, error) {
	if n, hit, err := x.cachedCount(ctx, from, to); hit {
		return n, err
	}
	n := 0
	err := x.scanGroups(ctx, from, to, func(_ string, es []Entry) bool {
		n += len(es)
		return true
	})
	return n, err
}

// cachedCount answers CountRange from memoized per-constituent counts.
// hit is false when no result cache is installed (fall back to the
// scan); when true the caller must not scan, even on error.
func (x *Index) cachedCount(ctx context.Context, from, to int) (n int, hit bool, err error) {
	if !x.rcOn {
		return 0, false, nil
	}
	if err := x.queryable(); err != nil {
		return 0, true, err
	}
	start, before, track := x.obs.begin()
	n, ok, err := x.scheme.Wave().AggCountCtx(ctx, from, to)
	if !ok {
		return 0, false, nil
	}
	if track {
		x.obs.end("scan", "", core.TraceIDFrom(ctx), 0, from, to, n, start, before, err)
	}
	return n, true, err
}

// cachedDayCounts answers Histogram from memoized per-constituent day
// histograms; same contract as cachedCount.
func (x *Index) cachedDayCounts(ctx context.Context, from, to int) (m map[int]int, hit bool, err error) {
	if !x.rcOn {
		return nil, false, nil
	}
	if err := x.queryable(); err != nil {
		return nil, true, err
	}
	start, before, track := x.obs.begin()
	m, ok, err := x.scheme.Wave().AggDayCountsCtx(ctx, from, to)
	if !ok {
		return nil, false, nil
	}
	if track {
		entries := 0
		for _, v := range m {
			entries += v
		}
		x.obs.end("scan", "", core.TraceIDFrom(ctx), 0, from, to, entries, start, before, err)
	}
	return m, true, err
}

// cachedKeyCounts answers key-frequency aggregates (TopKeys,
// DistinctKeys) from memoized per-constituent key counts; same contract
// as cachedCount.
func (x *Index) cachedKeyCounts(ctx context.Context, from, to int) (m map[string]int, hit bool, err error) {
	if !x.rcOn {
		return nil, false, nil
	}
	if err := x.queryable(); err != nil {
		return nil, true, err
	}
	start, before, track := x.obs.begin()
	m, ok, err := x.scheme.Wave().AggKeyCountsCtx(ctx, from, to)
	if !ok {
		return nil, false, nil
	}
	if track {
		entries := 0
		for _, v := range m {
			entries += v
		}
		x.obs.end("scan", "", core.TraceIDFrom(ctx), 0, from, to, entries, start, before, err)
	}
	return m, true, err
}

// SumAux sums the Aux field of key's entries in [from, to] — answering
// aggregates from the index alone when Aux carries the measure (e.g. the
// TPC-D example stores quantities there).
func (x *Index) SumAux(ctx context.Context, key string, from, to int) (int64, error) {
	es, err := x.ProbeRange(ctx, key, from, to)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, e := range es {
		sum += int64(e.Aux)
	}
	return sum, nil
}

// KeyCount pairs a search value with its entry count.
type KeyCount struct {
	Key   string
	Count int
}

// kcBetter reports whether a ranks before b in TopKeys order: higher
// count first, ties broken by smaller key.
func kcBetter(a, b KeyCount) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}

// kcHeap is a min-heap on TopKeys order — the worst retained key sits at
// the root, ready to be displaced.
type kcHeap []KeyCount

func (h kcHeap) Len() int            { return len(h) }
func (h kcHeap) Less(i, j int) bool  { return kcBetter(h[j], h[i]) }
func (h kcHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *kcHeap) Push(v interface{}) { *h = append(*h, v.(KeyCount)) }
func (h *kcHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TopKeys returns the k most frequent search values in [from, to],
// largest first (ties broken by key order). Selection keeps only the k
// best candidates in a bounded min-heap instead of sorting every
// distinct key.
func (x *Index) TopKeys(ctx context.Context, k, from, to int) ([]KeyCount, error) {
	if k < 1 {
		return nil, nil
	}
	counts, hit, err := x.cachedKeyCounts(ctx, from, to)
	if hit {
		if err != nil {
			return nil, err
		}
	} else {
		counts = map[string]int{}
		if err := x.scanGroups(ctx, from, to, func(key string, es []Entry) bool {
			counts[key] += len(es)
			return true
		}); err != nil {
			return nil, err
		}
	}
	// Size the heap by the keys that exist, not by k: k comes off the
	// wire, and TOPK 1e12 must not allocate a terabyte.
	h := make(kcHeap, 0, min(k, len(counts))+1)
	for key, n := range counts {
		kc := KeyCount{key, n}
		if len(h) < k {
			heap.Push(&h, kc)
		} else if kcBetter(kc, h[0]) {
			h[0] = kc
			heap.Fix(&h, 0)
		}
	}
	out := []KeyCount(h)
	sort.Slice(out, func(i, j int) bool { return kcBetter(out[i], out[j]) })
	return out, nil
}

// CountKeys returns the entry count of each key in [from, to], probing
// the batch in one MultiProbeRange pass. Keys without entries map to 0.
func (x *Index) CountKeys(ctx context.Context, keys []string, from, to int) (map[string]int, error) {
	res, err := x.MultiProbeRange(ctx, keys, from, to)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(keys))
	for _, k := range keys {
		out[k] = len(res[k])
	}
	return out, nil
}

// SumAuxKeys sums the Aux field per key over [from, to] in one batched
// probe — the multi-key form of SumAux.
func (x *Index) SumAuxKeys(ctx context.Context, keys []string, from, to int) (map[string]int64, error) {
	res, err := x.MultiProbeRange(ctx, keys, from, to)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(keys))
	for _, k := range keys {
		var sum int64
		for _, e := range res[k] {
			sum += int64(e.Aux)
		}
		out[k] = sum
	}
	return out, nil
}

// Histogram returns per-day entry counts over [from, to], indexed by
// day - from.
func (x *Index) Histogram(ctx context.Context, from, to int) ([]int, error) {
	if to < from {
		return nil, nil
	}
	if m, hit, err := x.cachedDayCounts(ctx, from, to); hit {
		if err != nil {
			return nil, err
		}
		out := make([]int, to-from+1)
		for d, v := range m {
			out[d-from] = v
		}
		return out, nil
	}
	out := make([]int, to-from+1)
	err := x.scanGroups(ctx, from, to, func(_ string, es []Entry) bool {
		for _, e := range es {
			out[int(e.Day)-from]++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DistinctKeys counts the distinct search values in [from, to].
func (x *Index) DistinctKeys(ctx context.Context, from, to int) (int, error) {
	if m, hit, err := x.cachedKeyCounts(ctx, from, to); hit {
		if err != nil {
			return 0, err
		}
		return len(m), nil
	}
	seen := map[string]struct{}{}
	err := x.scanGroups(ctx, from, to, func(key string, _ []Entry) bool {
		seen[key] = struct{}{}
		return true
	})
	return len(seen), err
}
