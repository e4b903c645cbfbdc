package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scanFixture builds an index over days 1..4 of skewed postings, either
// packed or grown one day at a time through CONTIGUOUS appends, and
// returns it with its per-key entries in insertion (bucket) order.
func scanFixture(t *testing.T, kind DirKind, contiguous bool) (*Index, map[string][]Entry) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var batches []*Batch
	model := map[string][]Entry{}
	for d := 1; d <= 4; d++ {
		b := &Batch{Day: d}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(1+rng.Intn(120)))
			e := Entry{RecordID: uint64(d*10000 + i), Aux: uint32(i), Day: int32(d)}
			b.Postings = append(b.Postings, Posting{Key: k, Entry: e})
			model[k] = append(model[k], e)
		}
		batches = append(batches, b)
	}
	opts := Options{Dir: kind, Growth: 1.5, MinBucketCap: 2}
	if !contiguous {
		idx, err := BuildPacked(newStore(t), opts, batches...)
		if err != nil {
			t.Fatal(err)
		}
		return idx, model
	}
	idx := NewEmpty(newStore(t), opts)
	for _, b := range batches {
		if err := idx.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	return idx, model
}

// inRange returns the entries of es with a day in [t1, t2], in order.
func inRange(es []Entry, t1, t2 int) []Entry {
	var out []Entry
	for _, e := range es {
		if int(e.Day) >= t1 && int(e.Day) <= t2 {
			out = append(out, e)
		}
	}
	return out
}

// TestScanGroupsMatchesModel checks ScanGroups and Probe against the
// model on packed and CONTIGUOUS-grown indexes, for ranges that split
// buckets: groups come in strictly ascending key order, each is exactly
// the key's in-range entries in bucket order, and no group is empty.
func TestScanGroupsMatchesModel(t *testing.T) {
	for _, kind := range []DirKind{HashDir, BTreeDir} {
		for _, contiguous := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/contiguous=%v", kind, contiguous), func(t *testing.T) {
				idx, model := scanFixture(t, kind, contiguous)
				for _, r := range [][2]int{{1, 4}, {2, 3}, {4, 4}, {0, 1}, {5, 9}, {3, 2}} {
					t1, t2 := r[0], r[1]
					got := map[string][]Entry{}
					prev := ""
					if err := idx.ScanGroups(t1, t2, func(k string, es []Entry) bool {
						if len(es) == 0 {
							t.Errorf("[%d,%d]: empty group for %q", t1, t2, k)
						}
						if k <= prev {
							t.Errorf("[%d,%d]: key %q after %q", t1, t2, k, prev)
						}
						prev = k
						got[k] = es
						return true
					}); err != nil {
						t.Fatal(err)
					}
					want := map[string][]Entry{}
					for k, es := range model {
						if f := inRange(es, t1, t2); len(f) > 0 {
							want[k] = f
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("[%d,%d]: %d groups, want %d", t1, t2, len(got), len(want))
					}
					for k, es := range want {
						p, err := idx.Probe(k, t1, t2)
						if err != nil {
							t.Fatal(err)
						}
						sorted := append([]Entry(nil), es...)
						SortEntries(sorted)
						if !reflect.DeepEqual(p, sorted) {
							t.Errorf("[%d,%d]: Probe(%q) = %v, want %v", t1, t2, k, p, sorted)
						}
					}
				}
			})
		}
	}
}

// TestProbeSortsOutOfOrderBucket appends days out of order, so the
// bucket's entries are not in (day, record, aux) order and Probe must
// fall back to sorting.
func TestProbeSortsOutOfOrderBucket(t *testing.T) {
	idx := NewEmpty(newStore(t), Options{})
	for _, d := range []int{3, 1, 2} {
		if err := idx.Add(mkBatch(d, map[string]int{"k": 2})); err != nil {
			t.Fatal(err)
		}
	}
	got := probeKeys(t, idx, "k")
	if len(got) != 6 {
		t.Fatalf("Probe returned %d entries, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if CompareEntries(got[i-1], got[i]) > 0 {
			t.Fatalf("Probe result out of order at %d: %v", i, got)
		}
	}
	multi, err := idx.ProbeMulti([]string{"k"}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := got[:4]; !reflect.DeepEqual(multi[0], want) {
		t.Errorf("ProbeMulti = %v, want %v", multi[0], want)
	}
}

// TestScanGroupsAllocs pins the scan's allocation profile: one pooled
// transfer buffer serves every bucket read and each bucket's in-range
// entries are decoded straight into their own group, so a scan
// allocates at most once per non-empty bucket plus a constant.
func TestScanGroupsAllocs(t *testing.T) {
	for _, contiguous := range []bool{false, true} {
		t.Run(fmt.Sprintf("contiguous=%v", contiguous), func(t *testing.T) {
			idx, _ := scanFixture(t, HashDir, contiguous)
			for _, r := range [][2]int{{1, 4}, {2, 3}, {4, 4}} {
				groups := 0
				count := func(string, []Entry) bool { groups++; return true }
				if err := idx.ScanGroups(r[0], r[1], count); err != nil {
					t.Fatal(err)
				}
				if groups == 0 {
					t.Fatalf("[%d,%d]: no groups", r[0], r[1])
				}
				allocs := testing.AllocsPerRun(20, func() {
					if err := idx.ScanGroups(r[0], r[1], func(string, []Entry) bool { return true }); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("[%d,%d]: %d groups, %.0f allocations", r[0], r[1], groups, allocs)
				if limit := float64(groups + 4); allocs > limit {
					t.Errorf("[%d,%d]: ScanGroups made %.0f allocations for %d groups, want <= %.0f", r[0], r[1], allocs, groups, limit)
				}
			}
		})
	}
}
