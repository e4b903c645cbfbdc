package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/index"
	"waveindex/internal/simdisk"
	"waveindex/wave"
)

// ladderProbes is how many sampled keys each ladder rung replays.
const ladderProbes = 2000

// ladderCfg is one shard of a workload's fleet, rebuilt below the
// seams the program does not expose.
type ladderCfg struct {
	scheme    core.Kind
	technique core.Technique
	w, n      int
	growth    float64
	file      bool // file-backed store instead of RAM
	shards    int
	journal   bool // the fleet journals its days
}

// shardOf is the Router's default partition: 64-bit FNV-1a mod shards.
func shardOf(key string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

// shardZero returns the part of the inputs shard 0 owns: its postings
// of every day and up to ladderProbes of the sampled keys.
func shardZero(in *inputs, shards int) ([]*index.Batch, []string) {
	days := make([]*index.Batch, in.numDays())
	for i := range days {
		b := in.batch(i + 1)
		part := &index.Batch{Day: b.Day}
		for _, p := range b.Postings {
			if shardOf(p.Key, shards) == 0 {
				part.Postings = append(part.Postings, p)
			}
		}
		days[i] = part
	}
	var keys []string
	for _, k := range in.keys[0] {
		if len(keys) == ladderProbes {
			break
		}
		if shardOf(k, shards) == 0 {
			keys = append(keys, k)
		}
	}
	return days, keys
}

func newStore(file bool, path string) (*simdisk.Store, error) {
	if file {
		return simdisk.NewFile(path, simdisk.Config{})
	}
	return simdisk.NewRAM(simdisk.Config{}), nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runLadder replays shard 0's days and sampled keys, on one goroutine,
// against a standalone core scheme, a standalone constituent index and
// a standalone wave index (plus a journaled one when the fleet
// journals), and adds the core-, index-, simdisk- and wave-layer values
// only reachable there.
func runLadder(cfg ladderCfg, in *inputs, dir string, m map[string]float64) error {
	days, keys := shardZero(in, cfg.shards)
	if err := coreRung(cfg, days, keys, dir, m); err != nil {
		return fmt.Errorf("core ladder: %w", err)
	}
	if err := indexRung(cfg, days, keys, dir, m); err != nil {
		return fmt.Errorf("index ladder: %w", err)
	}
	if err := waveRung(cfg, days, keys, dir, m); err != nil {
		return fmt.Errorf("wave ladder: %w", err)
	}
	return nil
}

// coreRung builds the scheme over a decorated DataBackend on a timing
// store, rolls every remaining day through Transition back to back (so
// the transition.post span, which lasts until the next transition
// begins, holds post-work rather than the fleet's idle time between
// days), then replays the sampled keys through TimedIndexProbe and one
// TimedSegmentScan.
func coreRung(cfg ladderCfg, days []*index.Batch, keys []string, dir string, m map[string]float64) error {
	st, err := newStore(cfg.file, filepath.Join(dir, "core.store"))
	if err != nil {
		return err
	}
	defer st.Close()
	ts := &timingStore{BlockStore: st}
	src := core.NewMemorySource(0)
	clock := newOpClock()
	spans := newSpanCollector()
	obs := core.NewMetricsObserver(core.TransitionMetrics{}, spans)
	bk := wrapCoreBackend(core.NewDataBackend(ts, index.Options{Growth: cfg.growth}, src, obs), clock)
	scheme, err := core.NewScheme(cfg.scheme, core.Config{W: cfg.w, N: cfg.n, Technique: cfg.technique, StartDay: 1, Observer: obs}, bk)
	if err != nil {
		return err
	}
	defer scheme.Close()
	for _, b := range days[:cfg.w] {
		src.Put(b)
	}
	if err := scheme.Start(); err != nil {
		return err
	}
	before, writes, writeNs := st.Stats(), ts.writes.Load(), ts.writeNs.Load()
	ingested := 0
	for _, b := range days[cfg.w:] {
		src.Put(b)
		if err := scheme.Transition(b.Day); err != nil {
			return err
		}
		ingested += len(b.Postings)
	}
	obs.Flush() // ends the last day's post-work phase
	m["core.transition_pre_ms"] = msOf(spans.meanOf("transition.pre"))
	m["core.transition_work_ms"] = msOf(spans.meanOf("transition.work"))
	m["core.transition_post_ms"] = msOf(spans.meanOf("transition.post"))
	roll := st.Stats().Sub(before)
	rolled := len(days) - cfg.w
	m["simdisk.write_amp"] = float64(roll.BytesWritten) / float64(ingested*entrySize)
	m["simdisk.sim_ms_per_day"] = msOf(roll.SimTime) / float64(rolled)
	m["simdisk.write_ns"] = float64(ts.writeNs.Load()-writeNs) / float64(max(1, ts.writes.Load()-writes))
	m["index.build_ms_per_day"] = msOf(clock.perUnit("build"))
	m["index.merge_ms"] = msOf(clock.mean("merge"))

	w := scheme.Wave()
	from, to := scheme.WindowStart(), scheme.LastDay()
	before, reads, readNs := st.Stats(), ts.reads.Load(), ts.readNs.Load()
	entries := 0
	for _, k := range keys {
		es, err := w.TimedIndexProbe(k, from, to)
		if err != nil {
			return err
		}
		entries += len(es)
	}
	probe := st.Stats().Sub(before)
	n := float64(len(keys))
	m["simdisk.seeks_per_probe"] = float64(probe.Seeks) / n
	m["simdisk.sim_us_per_probe"] = usOf(probe.SimTime) / n
	m["simdisk.useful_read_ratio"] = float64(entries*entrySize) / float64(max(1, probe.BytesRead))
	if err := w.TimedSegmentScan(from, to, func(string, index.Entry) bool { return true }); err != nil {
		return err
	}
	m["simdisk.read_ns"] = float64(ts.readNs.Load()-readNs) / float64(max(1, ts.reads.Load()-reads))
	return nil
}

// indexRung builds one constituent's worth of days with BuildPacked and
// replays the sampled keys through Probe and the whole index through
// Scan, timing them and counting their allocations.
func indexRung(cfg ladderCfg, days []*index.Batch, keys []string, dir string, m map[string]float64) error {
	st, err := newStore(cfg.file, filepath.Join(dir, "index.store"))
	if err != nil {
		return err
	}
	defer st.Close()
	per := (cfg.w + cfg.n - 1) / cfg.n
	idx, err := index.BuildPacked(st, index.Options{Growth: cfg.growth}, days[:per]...)
	if err != nil {
		return err
	}
	defer idx.Drop()
	entries := 0
	start := time.Now()
	for _, k := range keys {
		es, err := idx.Probe(k, 1, per)
		if err != nil {
			return err
		}
		entries += len(es)
	}
	m["index.probe_us"] = usOf(time.Since(start)) / float64(len(keys))
	m["index.entries_per_probe"] = float64(entries) / float64(len(keys))
	m["index.probe_allocs"], m["index.probe_bytes"] = allocsPerOp(len(keys), func(i int) {
		idx.Probe(keys[i], 1, per)
	})
	scanned := 0
	start = time.Now()
	if err := idx.Scan(1, per, func(string, index.Entry) bool { scanned++; return true }); err != nil {
		return err
	}
	m["index.scan_ns_per_entry"] = float64(time.Since(start).Nanoseconds()) / float64(max(1, scanned))
	allocs, _ := allocsPerOp(1, func(int) {
		idx.Scan(1, per, func(string, index.Entry) bool { return true })
	})
	m["index.scan_allocs_per_entry"] = allocs / float64(max(1, scanned))
	return nil
}

// waveRung builds a standalone wave.Index with one shard's config and
// replays probes (allocations) and TopKeys (time); when the fleet
// journals, it also rolls the remaining days on both the plain index
// and a journaled one, so the difference is the journal's cost.
func waveRung(cfg ladderCfg, days []*index.Batch, keys []string, dir string, m map[string]float64) error {
	wcfg := wave.Config{Window: cfg.w, Indexes: cfg.n, Scheme: cfg.scheme, Update: cfg.technique, GrowthFactor: cfg.growth}
	plain := wcfg
	if cfg.file {
		plain.StorePath = filepath.Join(dir, "wave.store")
	}
	x, err := wave.New(plain)
	if err != nil {
		return err
	}
	defer x.Close()
	for _, b := range days[:cfg.w] {
		if err := x.AddDay(b.Day, b.Postings); err != nil {
			return err
		}
	}
	ctx := context.Background()
	m["wave.probe_allocs"], m["wave.probe_bytes"] = allocsPerOp(len(keys), func(i int) {
		x.ProbeRange(ctx, keys[i], 1, cfg.w)
	})
	var topk []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := x.TopKeys(ctx, 10, 1, cfg.w); err != nil {
			return err
		}
		topk = append(topk, msOf(time.Since(start)))
	}
	m["wave.topk_ms"] = median(topk)
	if !cfg.journal {
		return nil
	}
	plainAdd := map[int]time.Duration{}
	for _, b := range days[cfg.w:] {
		start := time.Now()
		if err := x.AddDay(b.Day, b.Postings); err != nil {
			return err
		}
		plainAdd[b.Day] = time.Since(start)
	}
	st, err := wave.OpenJournalDir(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	spans := newSpanCollector()
	jcfg := wcfg
	jcfg.Trace = spans
	j, err := wave.OpenJournaled(jcfg, st, wave.JournalOptions{})
	if err != nil {
		st.Close()
		return err
	}
	defer j.Close()
	for _, b := range days[:cfg.w] {
		if err := j.AddDay(b.Day, b.Postings); err != nil {
			return err
		}
	}
	var extra, bytes []float64
	for _, b := range days[cfg.w:] {
		ckpts, logged := spans.countOf("journal.checkpoint"), st.Log().Stats().SyncedBytes
		start := time.Now()
		if err := j.AddDay(b.Day, b.Postings); err != nil {
			return err
		}
		el := time.Since(start)
		if spans.countOf("journal.checkpoint") != ckpts {
			continue // the log was truncated; the day's cost includes a checkpoint
		}
		extra = append(extra, msOf(el-plainAdd[b.Day]))
		bytes = append(bytes, float64(st.Log().Stats().SyncedBytes-logged))
	}
	m["wave.journal_ms_per_day"] = median(extra)
	m["wave.journal_bytes_per_day"] = median(bytes)
	return nil
}
