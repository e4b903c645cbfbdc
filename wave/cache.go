package wave

import (
	"waveindex/internal/core"
	"waveindex/internal/simdisk"
)

// This file is the public surface of the two-level caching tier: the
// block buffer pool wrapped around the simulated stores (Level 1,
// Config.CacheBlocks) and the per-constituent result cache keyed by
// constituent generation (Level 2, Config.CacheResults). CacheInfo is
// the combined snapshot exported as cache_* gauges, the INFO cache
// wire document, and /cache.

// BlockCacheStats reports one block cache's effectiveness, including
// the simulated seek/transfer cost its hits avoided.
type BlockCacheStats = simdisk.CacheStats

// ResultCacheStats reports the result cache's effectiveness and
// occupancy (capacity is measured in result rows).
type ResultCacheStats = core.ResultCacheStats

// CacheInfo is a point-in-time snapshot of both cache levels.
type CacheInfo struct {
	// BlocksEnabled reports whether a block buffer pool wraps the
	// stores; Blocks sums the per-store cache counters when it does.
	BlocksEnabled bool
	Blocks        BlockCacheStats
	// ResultsEnabled reports whether the per-constituent result cache
	// is installed; Results is its counter snapshot when it is.
	ResultsEnabled bool
	Results        ResultCacheStats
	// Generations holds the current generation stamp of each wave slot
	// (0 = never published). Entries cached under any other generation
	// are unreachable: a transition that rebuilt slot i moved
	// Generations[i], so only that slot's cached results died.
	Generations []uint64
}

// CacheInfo returns the caching tier's combined snapshot. With both
// cache levels disabled the stats are zero and the Enabled flags false;
// Generations is always populated (it tracks transitions, not caching).
func (x *Index) CacheInfo() CacheInfo { return x.cacheInfo() }

func (x *Index) cacheInfo() CacheInfo {
	var ci CacheInfo
	for _, bc := range x.bcaches {
		st := bc.CacheStats()
		ci.BlocksEnabled = true
		ci.Blocks.Hits += st.Hits
		ci.Blocks.Misses += st.Misses
		ci.Blocks.Evictions += st.Evictions
		ci.Blocks.Resident += st.Resident
		ci.Blocks.SavedSeeks += st.SavedSeeks
		ci.Blocks.SavedSimTime += st.SavedSimTime
	}
	w := x.scheme.Wave()
	ci.Results = w.ResultCacheStats()
	ci.ResultsEnabled = ci.Results.CostCap > 0
	ci.Generations = w.Generations()
	return ci
}
