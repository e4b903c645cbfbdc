package wave

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"waveindex/internal/index"
)

// TestGroupScanOracle checks the group scan and the scan-derived
// aggregates (CountRange, TopKeys, Histogram) against a map model of
// every posting added, for every scheme with the result cache off and
// on. Ranges run over every pair of bounds around the indexed days, so
// t1 and t2 fall inside constituents' day bounds — buckets are split and
// some filter to empty — and, on WATA*, reach the soft window's extra
// days before the required window.
func TestGroupScanOracle(t *testing.T) {
	const window, indexes = 6, 3
	keys := []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu"}
	for _, scheme := range []Scheme{DEL, REINDEX, REINDEXPlus, REINDEXPlusPlus, WATAStar, RATAStar} {
		for _, cache := range []int{0, 256} {
			t.Run(fmt.Sprintf("%s/cache=%d", scheme, cache), func(t *testing.T) {
				x, err := New(Config{Window: window, Indexes: indexes, Scheme: scheme, CacheResults: cache})
				if err != nil {
					t.Fatal(err)
				}
				defer x.Close()
				rng := rand.New(rand.NewSource(int64(scheme)*31 + int64(cache)))
				model := map[int][]Posting{}
				extras := false
				for d := 1; d <= 4*window; d++ {
					var ps []Posting
					for i, n := 0, rng.Intn(14); i < n; i++ {
						k := keys[rng.Intn(1+rng.Intn(len(keys)))]
						ps = append(ps, Posting{Key: k, Entry: Entry{RecordID: uint64(d*1000 + i), Aux: uint32(i), Day: int32(d)}})
					}
					model[d] = ps
					if err := x.AddDay(d, ps); err != nil {
						t.Fatal(err)
					}
					if d < window || d%2 == 1 {
						continue
					}
					indexed := indexedDays(x)
					if from, _ := x.Window(); indexed[0] < from {
						extras = true
					}
					lo, hi := indexed[0]-1, indexed[len(indexed)-1]+1
					for t1 := lo; t1 <= hi; t1++ {
						for t2 := t1; t2 <= hi; t2++ {
							checkScanOracle(t, x, model, indexed, t1, t2)
						}
					}
				}
				if wantExtras := scheme == WATAStar; extras != wantExtras {
					t.Errorf("soft-window extra days seen = %v, want %v", extras, wantExtras)
				}
			})
		}
	}
}

// indexedDays returns the days the wave's constituents hold, ascending.
func indexedDays(x *Index) []int {
	var days []int
	for _, c := range x.Stats().Constituents {
		days = append(days, c.Days...)
	}
	sort.Ints(days)
	return days
}

// checkScanOracle compares one range's group scan and aggregates with
// the model restricted to the indexed days in [t1, t2].
func checkScanOracle(t *testing.T, x *Index, model map[int][]Posting, indexed []int, t1, t2 int) {
	t.Helper()
	ctx := context.Background()
	want := map[string][]Entry{}
	hist := make([]int, t2-t1+1)
	total := 0
	for _, d := range indexed {
		if d < t1 || d > t2 {
			continue
		}
		for _, p := range model[d] {
			want[p.Key] = append(want[p.Key], p.Entry)
			hist[d-t1]++
			total++
		}
	}

	got := map[string][]Entry{}
	prev := ""
	if err := x.scanGroups(ctx, t1, t2, func(key string, es []Entry) bool {
		if len(es) == 0 {
			t.Errorf("[%d,%d]: empty group for %q", t1, t2, key)
		}
		if key < prev {
			t.Errorf("[%d,%d]: group key %q after %q", t1, t2, key, prev)
		}
		prev = key
		for _, e := range es {
			if int(e.Day) < t1 || int(e.Day) > t2 {
				t.Errorf("[%d,%d]: group %q holds day %d", t1, t2, key, e.Day)
			}
		}
		got[key] = append(got[key], es...)
		return true
	}); err != nil {
		t.Fatalf("[%d,%d]: group scan: %v", t1, t2, err)
	}
	for _, es := range got {
		index.SortEntries(es)
	}
	for _, es := range want {
		index.SortEntries(es)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("[%d,%d]: group scan = %v, want %v", t1, t2, got, want)
	}

	n, err := x.CountRange(ctx, t1, t2)
	if err != nil || n != total {
		t.Fatalf("[%d,%d]: CountRange = %d, %v; want %d", t1, t2, n, err, total)
	}
	h, err := x.Histogram(ctx, t1, t2)
	if err != nil || !reflect.DeepEqual(h, hist) {
		t.Fatalf("[%d,%d]: Histogram = %v, %v; want %v", t1, t2, h, err, hist)
	}
	var ranked []KeyCount
	for k, es := range want {
		ranked = append(ranked, KeyCount{k, len(es)})
	}
	sort.Slice(ranked, func(i, j int) bool { return kcBetter(ranked[i], ranked[j]) })
	for _, k := range []int{1, 3, len(ranked) + 1} {
		top, err := x.TopKeys(ctx, k, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		wantTop := ranked[:min(k, len(ranked))]
		if len(top) != len(wantTop) || (len(top) > 0 && !reflect.DeepEqual(top, wantTop)) {
			t.Fatalf("[%d,%d]: TopKeys(%d) = %v, want %v", t1, t2, k, top, wantTop)
		}
	}
}
