package core

import (
	"fmt"

	"waveindex/internal/index"
	"waveindex/internal/simdisk"
)

// DataBackend creates real data-bearing constituent indexes on a block
// store, fetching day batches from a DataSource. Its constituents
// implement Searcher, so waves built on it answer probes and scans.
type DataBackend struct {
	store simdisk.BlockStore
	opts  index.Options
	src   DataSource
	obs   Observer
}

// NewDataBackend returns a backend building indexes on store with the
// given options, reading day data from src. The observer may be nil.
func NewDataBackend(store simdisk.BlockStore, opts index.Options, src DataSource, obs Observer) *DataBackend {
	if obs == nil {
		obs = NopObserver{}
	}
	return &DataBackend{store: store, opts: opts, src: src, obs: obs}
}

// fetchBatches reads the given days' batches from src, sequentially:
// DataSource implementations are not required to be concurrency-safe.
func fetchBatches(src DataSource, days []int) ([]*index.Batch, error) {
	out := make([]*index.Batch, 0, len(days))
	for _, d := range days {
		b, err := src.Day(d)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func (bk *DataBackend) batches(days []int) ([]*index.Batch, error) {
	return fetchBatches(bk.src, days)
}

// buildFrom builds a packed constituent from already-fetched batches
// without reporting to the observer — the piece of Build that is safe to
// run off the maintenance goroutine (see MultiDiskBackend.BuildMany).
func (bk *DataBackend) buildFrom(bs []*index.Batch) (*dataConstituent, error) {
	idx, err := index.BuildPacked(bk.store, bk.opts, bs...)
	if err != nil {
		return nil, err
	}
	return &dataConstituent{bk: bk, idx: idx}, nil
}

// Build implements Backend.
func (bk *DataBackend) Build(days ...int) (Constituent, error) {
	bs, err := bk.batches(days)
	if err != nil {
		return nil, err
	}
	c, err := bk.buildFrom(bs)
	if err != nil {
		return nil, err
	}
	bk.obs.RecordOp(OpBuild, days)
	return c, nil
}

// Empty implements Backend.
func (bk *DataBackend) Empty() (Constituent, error) {
	return &dataConstituent{bk: bk, idx: index.NewEmpty(bk.store, bk.opts)}, nil
}

// dataConstituent adapts index.Index to the Constituent and Searcher
// interfaces.
type dataConstituent struct {
	bk  *DataBackend
	idx *index.Index
}

func (c *dataConstituent) Days() []int       { return c.idx.Days() }
func (c *dataConstituent) NumDays() int      { return c.idx.NumDays() }
func (c *dataConstituent) HasDay(d int) bool { return c.idx.HasDay(d) }
func (c *dataConstituent) SizeBytes() int64  { return c.idx.SizeBytes() }

func (c *dataConstituent) AddDays(days ...int) error {
	bs, err := c.bk.batches(days)
	if err != nil {
		return err
	}
	if err := c.idx.Add(bs...); err != nil {
		return err
	}
	c.bk.obs.RecordOp(OpAdd, days)
	return nil
}

func (c *dataConstituent) DeleteDays(days ...int) error {
	if err := c.idx.Delete(days...); err != nil {
		return err
	}
	c.bk.obs.RecordOp(OpDelete, days)
	return nil
}

func (c *dataConstituent) Clone() (Constituent, error) {
	cp, err := c.idx.Clone()
	if err != nil {
		return nil, err
	}
	c.bk.obs.RecordOp(OpCopy, c.idx.Days())
	return &dataConstituent{bk: c.bk, idx: cp}, nil
}

func (c *dataConstituent) PackedMerge(del, add []int) (Constituent, error) {
	bs, err := c.bk.batches(add)
	if err != nil {
		return nil, err
	}
	if len(add) > 0 {
		c.bk.obs.RecordOp(OpBuild, add)
	}
	merged, err := c.idx.PackedMerge(del, bs...)
	if err != nil {
		return nil, err
	}
	c.bk.obs.RecordOp(OpSmartCopy, c.idx.Days())
	return &dataConstituent{bk: c.bk, idx: merged}, nil
}

func (c *dataConstituent) Drop() error {
	c.bk.obs.RecordOp(OpDropIndex, nil)
	return c.idx.Drop()
}

// Probe implements Searcher.
func (c *dataConstituent) Probe(key string, t1, t2 int) ([]index.Entry, error) {
	return c.idx.Probe(key, t1, t2)
}

// ScanGroups implements Searcher.
func (c *dataConstituent) ScanGroups(t1, t2 int, fn func(string, []index.Entry) bool) error {
	return c.idx.ScanGroups(t1, t2, fn)
}

// MultiProbe implements MultiSearcher: the key batch is answered in one
// pass over the index with buckets read in disk order.
func (c *dataConstituent) MultiProbe(keys []string, t1, t2 int) ([][]index.Entry, error) {
	return c.idx.ProbeMulti(keys, t1, t2)
}

// DayBounds implements DayBounder with the index's cached bounds.
func (c *dataConstituent) DayBounds() (min, max int, ok bool) {
	return c.idx.DayBounds()
}

// Index exposes the underlying index (diagnostics and tests).
func (c *dataConstituent) Index() *index.Index { return c.idx }

// String aids debugging.
func (c *dataConstituent) String() string {
	return fmt.Sprintf("data%v", c.idx.Days())
}
