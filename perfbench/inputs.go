package main

import (
	"math/rand"
	"sort"

	"waveindex/internal/index"
	"waveindex/internal/workload"
	"waveindex/wave"
)

// inputs is everything a workload feeds the system, generated from the
// seed before any timing starts: day batches and one key stream per
// client. Only the first numDays days are generated; later days repeat
// them in order (day d carries generated day (d-1) mod numDays + 1's
// postings, stamped with day d), so a run can roll as many days as its
// length allows while its inputs and oracle stay the same size. Days
// are held without pointers (key ids into words), so the benchmark's
// own inputs add little to the garbage collector's work in the process
// it measures; batch materialises a day's postings.
type inputs struct {
	words []string
	days  []dayData // days[i] is day i+1
	keys  [][]string
	ready map[int]*index.Batch // days batch returns without rebuilding
}

type dayData struct {
	keyIDs  []uint32
	entries []index.Entry
}

// add appends a generated day, interning its keys.
func (in *inputs) add(b *index.Batch, ids map[string]uint32) {
	d := dayData{keyIDs: make([]uint32, len(b.Postings)), entries: make([]index.Entry, len(b.Postings))}
	for i, p := range b.Postings {
		id, ok := ids[p.Key]
		if !ok {
			id = uint32(len(in.words))
			ids[p.Key] = id
			in.words = append(in.words, p.Key)
		}
		d.keyIDs[i], d.entries[i] = id, p.Entry
	}
	in.days = append(in.days, d)
}

// numDays is the number of generated days.
func (in *inputs) numDays() int { return len(in.days) }

// generated returns the generated day (1-based) whose postings day d
// carries.
func generated(d, period int) int { return (d-1)%period + 1 }

// batch returns day d's postings.
func (in *inputs) batch(d int) *index.Batch {
	if b, ok := in.ready[d]; ok {
		return b
	}
	dd := in.days[generated(d, len(in.days))-1]
	b := &index.Batch{Day: d, Postings: make([]index.Posting, len(dd.entries))}
	for i, e := range dd.entries {
		e.Day = int32(d)
		b.Postings[i] = index.Posting{Key: in.words[dd.keyIDs[i]], Entry: e}
	}
	return b
}

// keep materialises days 1..n once, so set-up, which ingests them
// several times, does not time their materialisation.
func (in *inputs) keep(n int) {
	in.ready = map[int]*index.Batch{}
	for d := 1; d <= n; d++ {
		in.ready[d] = in.batch(d)
	}
}

// newsInputs generates Netnews days with Zipf-1.2 words and uniform
// probe keys over the vocabulary. volume, when non-nil, sets the
// article count per day.
func newsInputs(seed int64, days, articles, words, vocab int, volume func(int) int, clients, keysPerClient int) *inputs {
	g := workload.NewNewsGenerator(workload.NewsConfig{
		ArticlesPerDay: articles, WordsPerArticle: words, VocabSize: vocab,
		Skew: 1.2, Volume: volume, Seed: seed,
	})
	in := &inputs{}
	ids := map[string]uint32{}
	for d := 1; d <= days; d++ {
		in.add(g.Day(d), ids)
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < clients; c++ {
		ks := make([]string, keysPerClient)
		for i := range ks {
			ks[i] = g.Vocab().Word(rng.Intn(vocab))
		}
		in.keys = append(in.keys, ks)
	}
	return in
}

// lineitemInputs generates TPC-D LINEITEM days indexed on SUPPKEY (aux =
// quantity) and one uniform SUPPKEY drill-down stream.
func lineitemInputs(seed int64, days, rows, suppKeys, keys int) *inputs {
	g := workload.NewTPCDGenerator(workload.TPCDConfig{RowsPerDay: rows, SuppKeys: suppKeys, Seed: seed})
	in := &inputs{}
	ids := map[string]uint32{}
	for d := 1; d <= days; d++ {
		in.add(g.Day(d), ids)
		g.Trim(d + 1) // the generator's row retention is not needed
	}
	rng := rand.New(rand.NewSource(seed))
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = workload.SuppKeyString(1 + rng.Intn(suppKeys))
	}
	in.keys = [][]string{ks}
	return in
}

// oracle is the benchmark's independent model of the answers: a plain
// map from key to every generated day's entries, in (day, record, aux)
// order, plus per-day totals and key counts. Day d's answers are those
// of the generated day it repeats, restamped with d. It shares no code
// with the index.
type oracle struct {
	period   int
	byKey    map[string][]index.Entry // Day is the generated day
	dayCount []int                    // per generated day, 0-based
	dayAux   []int64
	dayKeys  [][]keyCount
	words    []string
}

type keyCount struct {
	id uint32
	n  int
}

func newOracle(in *inputs) *oracle {
	o := &oracle{period: len(in.days), byKey: map[string][]index.Entry{}, words: in.words}
	for g, d := range in.days {
		perKey := map[uint32]int{}
		aux := int64(0)
		for i, e := range d.entries {
			e.Day = int32(g + 1)
			key := in.words[d.keyIDs[i]]
			o.byKey[key] = append(o.byKey[key], e)
			perKey[d.keyIDs[i]]++
			aux += int64(e.Aux)
		}
		kc := make([]keyCount, 0, len(perKey))
		for id, n := range perKey {
			kc = append(kc, keyCount{id, n})
		}
		o.dayCount = append(o.dayCount, len(d.entries))
		o.dayAux = append(o.dayAux, aux)
		o.dayKeys = append(o.dayKeys, kc)
	}
	for _, es := range o.byKey {
		sort.Slice(es, func(i, j int) bool { return entryLess(es[i], es[j]) })
	}
	return o
}

func entryLess(a, b index.Entry) bool {
	if a.Day != b.Day {
		return a.Day < b.Day
	}
	if a.RecordID != b.RecordID {
		return a.RecordID < b.RecordID
	}
	return a.Aux < b.Aux
}

// probe returns key's entries inserted in [from, to].
func (o *oracle) probe(key string, from, to int) []index.Entry {
	es := o.byKey[key]
	var out []index.Entry
	for d := max(from, 1); d <= to; d++ {
		g := int32(generated(d, o.period))
		lo := sort.Search(len(es), func(i int) bool { return es[i].Day >= g })
		for _, e := range es[lo:] {
			if e.Day != g {
				break
			}
			e.Day = int32(d)
			out = append(out, e)
		}
	}
	return out
}

// count returns the number of entries inserted in [from, to].
func (o *oracle) count(from, to int) int {
	n := 0
	for d := max(from, 1); d <= to; d++ {
		n += o.dayCount[generated(d, o.period)-1]
	}
	return n
}

// sumAux returns the sum of Aux over entries inserted in [from, to].
func (o *oracle) sumAux(from, to int) int64 {
	var s int64
	for d := max(from, 1); d <= to; d++ {
		s += o.dayAux[generated(d, o.period)-1]
	}
	return s
}

// topKeys returns the k keys with the most entries in [from, to],
// largest first, ties broken by ascending key.
func (o *oracle) topKeys(k, from, to int) []wave.KeyCount {
	counts := map[uint32]int{}
	for d := max(from, 1); d <= to; d++ {
		for _, kc := range o.dayKeys[generated(d, o.period)-1] {
			counts[kc.id] += kc.n
		}
	}
	all := make([]wave.KeyCount, 0, len(counts))
	for id, n := range counts {
		all = append(all, wave.KeyCount{Key: o.words[id], Count: n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sameEntries reports whether got equals want exactly, in order.
func sameEntries(got, want []index.Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// sameTop reports whether a TopKeys answer equals the oracle's.
func sameTop(got, want []wave.KeyCount) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
