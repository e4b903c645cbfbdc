package index

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"waveindex/internal/simdisk"
)

func newStore(t testing.TB) *simdisk.Store {
	t.Helper()
	s := simdisk.NewRAM(simdisk.Config{BlockSize: 256})
	t.Cleanup(func() { s.Close() })
	return s
}

// mkBatch builds a day batch with one posting per (key, n) pair, n entries
// for each key, record IDs derived from day and sequence.
func mkBatch(day int, keyCounts map[string]int) *Batch {
	b := &Batch{Day: day}
	keys := make([]string, 0, len(keyCounts))
	for k := range keyCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seq := uint64(0)
	for _, k := range keys {
		for i := 0; i < keyCounts[k]; i++ {
			b.Postings = append(b.Postings, Posting{
				Key:   k,
				Entry: Entry{RecordID: uint64(day)*1_000_000 + seq, Aux: uint32(i), Day: int32(day)},
			})
			seq++
		}
	}
	return b
}

func probeKeys(t *testing.T, idx *Index, key string) []Entry {
	t.Helper()
	es, err := idx.Probe(key, -1<<30, 1<<30)
	if err != nil {
		t.Fatalf("Probe(%q): %v", key, err)
	}
	return es
}

func TestBuildPackedAndProbe(t *testing.T) {
	for _, kind := range []DirKind{HashDir, BTreeDir} {
		t.Run(kind.String(), func(t *testing.T) {
			s := newStore(t)
			idx, err := BuildPacked(s, Options{Dir: kind},
				mkBatch(1, map[string]int{"apple": 3, "pear": 1}),
				mkBatch(2, map[string]int{"apple": 2, "plum": 4}),
			)
			if err != nil {
				t.Fatal(err)
			}
			if !idx.Packed() {
				t.Error("freshly built index not packed")
			}
			if got := idx.NumEntries(); got != 10 {
				t.Errorf("NumEntries = %d, want 10", got)
			}
			if got := idx.NumKeys(); got != 3 {
				t.Errorf("NumKeys = %d, want 3", got)
			}
			if got := fmt.Sprint(idx.Days()); got != "[1 2]" {
				t.Errorf("Days = %s, want [1 2]", got)
			}
			if got := len(probeKeys(t, idx, "apple")); got != 5 {
				t.Errorf("apple entries = %d, want 5", got)
			}
			if got := len(probeKeys(t, idx, "missing")); got != 0 {
				t.Errorf("missing key entries = %d, want 0", got)
			}
		})
	}
}

func TestBuildPackedEmpty(t *testing.T) {
	s := newStore(t)
	idx, err := BuildPacked(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumEntries() != 0 || idx.NumKeys() != 0 || len(idx.Days()) != 0 {
		t.Errorf("empty build: %d entries, %d keys, days %v", idx.NumEntries(), idx.NumKeys(), idx.Days())
	}
	if err := idx.Scan(-1<<30, 1<<30, func(string, Entry) bool { t.Error("scan visited entry"); return false }); err != nil {
		t.Fatal(err)
	}
	if idx.SizeBytes() != 0 {
		t.Errorf("SizeBytes = %d, want 0", idx.SizeBytes())
	}
}

func TestTimedProbeFiltersByDay(t *testing.T) {
	s := newStore(t)
	idx, err := BuildPacked(s, Options{},
		mkBatch(5, map[string]int{"k": 2}),
		mkBatch(6, map[string]int{"k": 3}),
		mkBatch(7, map[string]int{"k": 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	es, err := idx.Probe("k", 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Fatalf("timed probe [6,6] = %d entries, want 3", len(es))
	}
	for _, e := range es {
		if e.Day != 6 {
			t.Errorf("entry day %d escaped the [6,6] filter", e.Day)
		}
	}
	if es, _ := idx.Probe("k", 8, 10); len(es) != 0 {
		t.Errorf("out-of-range probe = %d entries, want 0", len(es))
	}
}

func TestPackedScanSingleSeek(t *testing.T) {
	s := newStore(t)
	idx, err := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 20, "b": 20, "c": 20, "d": 20}))
	if err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	n := 0
	if err := idx.Scan(-1<<30, 1<<30, func(string, Entry) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 80 {
		t.Fatalf("scan visited %d entries, want 80", n)
	}
	if seeks := s.Stats().Seeks; seeks != 1 {
		t.Errorf("packed scan cost %d seeks, want 1 (contiguous buckets)", seeks)
	}
}

func TestScanOrderIsKeyOrder(t *testing.T) {
	for _, kind := range []DirKind{HashDir, BTreeDir} {
		s := newStore(t)
		idx, err := BuildPacked(s, Options{Dir: kind}, mkBatch(1, map[string]int{"m": 1, "a": 1, "z": 1, "c": 1}))
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		if err := idx.Scan(-1<<30, 1<<30, func(k string, _ Entry) bool { keys = append(keys, k); return true }); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(keys), "[a c m z]"; got != want {
			t.Errorf("%v scan order = %s, want %s", kind, got, want)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := newStore(t)
	idx, _ := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 5, "b": 5}))
	n := 0
	if err := idx.Scan(-1<<30, 1<<30, func(string, Entry) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("visited %d entries, want 3", n)
	}
}

func TestAddToEmptyIndex(t *testing.T) {
	s := newStore(t)
	idx := NewEmpty(s, Options{})
	if err := idx.Add(mkBatch(3, map[string]int{"x": 2, "y": 1})); err != nil {
		t.Fatal(err)
	}
	if got := idx.NumEntries(); got != 3 {
		t.Errorf("NumEntries = %d, want 3", got)
	}
	if !idx.HasDay(3) {
		t.Error("day 3 missing from time-set")
	}
	if got := len(probeKeys(t, idx, "x")); got != 2 {
		t.Errorf("x entries = %d, want 2", got)
	}
}

func TestAddGrowsBucketContiguous(t *testing.T) {
	s := newStore(t)
	idx := NewEmpty(s, Options{Growth: 2.0, MinBucketCap: 4})
	// Fill one key well past several growth boundaries.
	for day := 1; day <= 10; day++ {
		if err := idx.Add(mkBatch(day, map[string]int{"hot": 17})); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	es := probeKeys(t, idx, "hot")
	if len(es) != 170 {
		t.Fatalf("hot entries = %d, want 170", len(es))
	}
	// All entries intact and in insertion order per day.
	for i := 1; i < len(es); i++ {
		if es[i].RecordID < es[i-1].RecordID {
			t.Fatalf("entries out of order at %d: %v after %v", i, es[i], es[i-1])
		}
	}
	if idx.Packed() {
		t.Error("index still reports packed after incremental growth")
	}
	// Growth headroom means allocated bytes exceed the packed minimum.
	if idx.SizeBytes() <= int64(170*EntrySize) {
		t.Errorf("SizeBytes = %d, want > packed size %d", idx.SizeBytes(), 170*EntrySize)
	}
}

func TestAddToPackedRelocatesBucket(t *testing.T) {
	s := newStore(t)
	idx, err := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 3, "b": 3}))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(mkBatch(2, map[string]int{"a": 1})); err != nil {
		t.Fatal(err)
	}
	if idx.Packed() {
		t.Error("index reports packed after overflowing a packed bucket")
	}
	if got := len(probeKeys(t, idx, "a")); got != 4 {
		t.Errorf("a entries = %d, want 4", got)
	}
	if got := len(probeKeys(t, idx, "b")); got != 3 {
		t.Errorf("b entries = %d (sibling bucket should be untouched)", got)
	}
}

func TestDeleteDay(t *testing.T) {
	s := newStore(t)
	idx, err := BuildPacked(s, Options{},
		mkBatch(1, map[string]int{"a": 2, "only1": 3}),
		mkBatch(2, map[string]int{"a": 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(1); err != nil {
		t.Fatal(err)
	}
	if idx.HasDay(1) || !idx.HasDay(2) {
		t.Errorf("time-set after delete = %v", idx.Days())
	}
	if got := idx.NumEntries(); got != 2 {
		t.Errorf("NumEntries = %d, want 2", got)
	}
	if got := len(probeKeys(t, idx, "a")); got != 2 {
		t.Errorf("a entries = %d, want 2", got)
	}
	// only1's bucket became empty and must leave the directory.
	if got := idx.NumKeys(); got != 1 {
		t.Errorf("NumKeys = %d, want 1", got)
	}
	if got := len(probeKeys(t, idx, "only1")); got != 0 {
		t.Errorf("only1 entries = %d, want 0", got)
	}
}

func TestDeleteFreesOwnedBuckets(t *testing.T) {
	s := newStore(t)
	idx := NewEmpty(s, Options{})
	if err := idx.Add(mkBatch(1, map[string]int{"gone": 5})); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().UsedBlocks
	if before == 0 {
		t.Fatal("no blocks allocated")
	}
	if err := idx.Delete(1); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().UsedBlocks; after != 0 {
		t.Errorf("UsedBlocks = %d after deleting sole day, want 0", after)
	}
	if idx.SizeBytes() != 0 {
		t.Errorf("SizeBytes = %d, want 0", idx.SizeBytes())
	}
}

func TestDeleteNoMatchIsNoop(t *testing.T) {
	s := newStore(t)
	idx, _ := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 2}))
	if err := idx.Delete(99); err != nil {
		t.Fatal(err)
	}
	if idx.NumEntries() != 2 || !idx.Packed() {
		t.Errorf("no-op delete changed index: %d entries, packed=%v", idx.NumEntries(), idx.Packed())
	}
}

func TestDropFreesAllStorage(t *testing.T) {
	s := newStore(t)
	idx, err := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 10, "b": 10}))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(mkBatch(2, map[string]int{"c": 30})); err != nil {
		t.Fatal(err)
	}
	if err := idx.Drop(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().UsedBlocks; got != 0 {
		t.Errorf("UsedBlocks = %d after Drop, want 0", got)
	}
	if !idx.Dropped() {
		t.Error("Dropped() = false")
	}
	// All operations now fail with ErrDropped.
	if err := idx.Add(mkBatch(3, map[string]int{"x": 1})); !errors.Is(err, ErrDropped) {
		t.Errorf("Add after drop err = %v", err)
	}
	if _, err := idx.Probe("a", 0, 9); !errors.Is(err, ErrDropped) {
		t.Errorf("Probe after drop err = %v", err)
	}
	if err := idx.Delete(1); !errors.Is(err, ErrDropped) {
		t.Errorf("Delete after drop err = %v", err)
	}
	if err := idx.Scan(0, 9, func(string, Entry) bool { return true }); !errors.Is(err, ErrDropped) {
		t.Errorf("Scan after drop err = %v", err)
	}
	if _, err := idx.Clone(); !errors.Is(err, ErrDropped) {
		t.Errorf("Clone after drop err = %v", err)
	}
	if err := idx.Drop(); !errors.Is(err, ErrDropped) {
		t.Errorf("double Drop err = %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := newStore(t)
	orig, err := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 4, "b": 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Add(mkBatch(2, map[string]int{"c": 6})); err != nil {
		t.Fatal(err)
	}
	clone, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.NumEntries() != orig.NumEntries() {
		t.Fatalf("clone entries = %d, want %d", clone.NumEntries(), orig.NumEntries())
	}
	// Mutating the clone must not affect the original (shadow semantics).
	if err := clone.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := clone.Add(mkBatch(3, map[string]int{"a": 1})); err != nil {
		t.Fatal(err)
	}
	if got := len(probeKeys(t, orig, "a")); got != 4 {
		t.Errorf("original a entries = %d after clone mutation, want 4", got)
	}
	if !orig.HasDay(1) {
		t.Error("original lost day 1 after clone deletion")
	}
	if got := len(probeKeys(t, clone, "a")); got != 1 {
		t.Errorf("clone a entries = %d, want 1", got)
	}
}

func TestClonePreservesLayoutShape(t *testing.T) {
	s := newStore(t)
	packed, _ := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 8}))
	pc, err := packed.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !pc.Packed() {
		t.Error("clone of packed index is not packed")
	}
	unpacked := NewEmpty(s, Options{})
	if err := unpacked.Add(mkBatch(1, map[string]int{"a": 8})); err != nil {
		t.Fatal(err)
	}
	uc, err := unpacked.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if uc.Packed() {
		t.Error("clone of unpacked index reports packed")
	}
	if uc.SizeBytes() != unpacked.SizeBytes() {
		t.Errorf("clone size = %d, want %d (headroom preserved)", uc.SizeBytes(), unpacked.SizeBytes())
	}
}

func TestPackedMergeDropsAndAdds(t *testing.T) {
	s := newStore(t)
	idx, err := BuildPacked(s, Options{},
		mkBatch(1, map[string]int{"a": 3, "old": 2}),
		mkBatch(2, map[string]int{"a": 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := idx.PackedMerge([]int{1}, mkBatch(3, map[string]int{"a": 2, "new": 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Packed() {
		t.Error("PackedMerge result not packed")
	}
	if got := fmt.Sprint(merged.Days()); got != "[2 3]" {
		t.Errorf("merged days = %s, want [2 3]", got)
	}
	if got := len(probeKeys(t, merged, "a")); got != 3 {
		t.Errorf("a entries = %d, want 3 (1 surviving + 2 added)", got)
	}
	if got := len(probeKeys(t, merged, "old")); got != 0 {
		t.Errorf("old entries = %d, want 0", got)
	}
	if got := len(probeKeys(t, merged, "new")); got != 1 {
		t.Errorf("new entries = %d, want 1", got)
	}
	// Result size is minimal: exactly the packed size rounded to blocks.
	minBytes := int64(merged.NumEntries() * EntrySize)
	bs := int64(s.BlockSize())
	wantBytes := (minBytes + bs - 1) / bs * bs
	if merged.SizeBytes() != wantBytes {
		t.Errorf("merged SizeBytes = %d, want %d", merged.SizeBytes(), wantBytes)
	}
	// Original untouched.
	if idx.NumEntries() != 6 {
		t.Errorf("original entries = %d after merge, want 6", idx.NumEntries())
	}
}

func TestPackedMergeToEmpty(t *testing.T) {
	s := newStore(t)
	idx, _ := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 2}))
	merged, err := idx.PackedMerge([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumEntries() != 0 || merged.NumKeys() != 0 {
		t.Errorf("merge-to-empty: %d entries, %d keys", merged.NumEntries(), merged.NumKeys())
	}
}

func TestStoreErrorsPropagate(t *testing.T) {
	s := newStore(t)
	idx, err := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"a": 2}))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	s.FailAfter(simdisk.OpRead, 0, boom)
	if _, err := idx.Probe("a", 0, 9); !errors.Is(err, boom) {
		t.Errorf("Probe err = %v, want wrapped boom", err)
	}
	s.FailAfter(simdisk.OpAlloc, 0, boom)
	if _, err := BuildPacked(s, Options{}, mkBatch(1, map[string]int{"x": 1})); !errors.Is(err, boom) {
		t.Errorf("BuildPacked alloc err = %v, want wrapped boom", err)
	}
	s.FailAfter(simdisk.OpWrite, 0, boom)
	if err := idx.Add(mkBatch(2, map[string]int{"zz": 1})); !errors.Is(err, boom) {
		t.Errorf("Add err = %v, want wrapped boom", err)
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	es := []Entry{
		{RecordID: 0, Aux: 0, Day: 0},
		{RecordID: ^uint64(0), Aux: ^uint32(0), Day: -5},
		{RecordID: 123456789, Aux: 42, Day: 30000},
	}
	buf := encodeEntries(es)
	if len(buf) != len(es)*EntrySize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), len(es)*EntrySize)
	}
	got := decodeInRange(buf, len(es), allDaysLo, allDaysHi)
	for i := range es {
		if got[i] != es[i] {
			t.Errorf("entry %d round-trip = %v, want %v", i, got[i], es[i])
		}
	}
}

// TestRandomizedModelConformance exercises Build/Add/Delete/Probe against
// an in-memory model across both directory kinds and growth factors.
func TestRandomizedModelConformance(t *testing.T) {
	for _, kind := range []DirKind{HashDir, BTreeDir} {
		for _, g := range []float64{1.08, 2.0} {
			t.Run(fmt.Sprintf("%v g=%.2f", kind, g), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				s := newStore(t)
				idx := NewEmpty(s, Options{Dir: kind, Growth: g})
				model := map[string][]Entry{} // key -> live entries
				keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
				for day := 1; day <= 40; day++ {
					b := &Batch{Day: day}
					for i := 0; i < rng.Intn(20); i++ {
						k := keys[rng.Intn(len(keys))]
						e := Entry{RecordID: uint64(day*1000 + i), Day: int32(day)}
						b.Postings = append(b.Postings, Posting{Key: k, Entry: e})
						model[k] = append(model[k], e)
					}
					if err := idx.Add(b); err != nil {
						t.Fatal(err)
					}
					if day%7 == 0 { // expire a random old day
						gone := rng.Intn(day) + 1
						if err := idx.Delete(gone); err != nil {
							t.Fatal(err)
						}
						for k := range model {
							kept := model[k][:0]
							for _, e := range model[k] {
								if int(e.Day) != gone {
									kept = append(kept, e)
								}
							}
							model[k] = kept
						}
					}
					// Spot-check a probe.
					k := keys[rng.Intn(len(keys))]
					lo := rng.Intn(day + 1)
					hi := lo + rng.Intn(day-lo+1)
					got, err := idx.Probe(k, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					var want []Entry
					for _, e := range model[k] {
						if int(e.Day) >= lo && int(e.Day) <= hi {
							want = append(want, e)
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("day %d: Probe(%q,%d,%d) = %v, want %v", day, k, lo, hi, got, want)
					}
				}
				// Full scan equals the model.
				total := 0
				for _, es := range model {
					total += len(es)
				}
				n := 0
				seen := map[string]int{}
				if err := idx.Scan(-1<<30, 1<<30, func(k string, _ Entry) bool { n++; seen[k]++; return true }); err != nil {
					t.Fatal(err)
				}
				if n != total {
					t.Errorf("scan visited %d entries, want %d", n, total)
				}
				for k, c := range seen {
					if c != len(model[k]) {
						t.Errorf("key %s: scan saw %d, want %d", k, c, len(model[k]))
					}
				}
			})
		}
	}
}
