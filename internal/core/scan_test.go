package core

import (
	"context"
	"testing"

	"waveindex/internal/index"
)

// TestSegmentScanGroupsAllocs pins the merged scan's allocation profile
// on a wave of several constituents: each key group is decoded once into
// its own slice and travels through the producer's stream and the merge
// untouched, so a scan allocates about once per group plus set-up that
// grows with the number of constituents, never with the entries.
func TestSegmentScanGroupsAllocs(t *testing.T) {
	s, _, _ := newDataScheme(t, KindDEL, 10, 4, PackedShadow, index.HashDir)
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	w := s.Wave()
	ctx := context.Background()
	for _, r := range [][2]int{{1, 1 << 29}, {3, 7}} {
		targets, _, err := searchTargets(w.Snapshot(), r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) < 2 {
			t.Fatalf("[%d,%d] hits %d constituents, want >= 2", r[0], r[1], len(targets))
		}
		groups, entries := 0, 0
		if err := w.SegmentScanGroupsCtx(ctx, r[0], r[1], func(_ string, es []index.Entry) bool {
			groups++
			entries += len(es)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := w.SegmentScanGroupsCtx(ctx, r[0], r[1], func(string, []index.Entry) bool { return true }); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("[%d,%d]: %d constituents, %d groups, %d entries, %.0f allocations", r[0], r[1], len(targets), groups, entries, allocs)
		if limit := float64(groups + 12*len(targets) + 16); allocs > limit {
			t.Errorf("[%d,%d]: scan made %.0f allocations for %d groups over %d constituents, want <= %.0f",
				r[0], r[1], allocs, groups, len(targets), limit)
		}
	}
}
