package core

import (
	"container/heap"
	"context"
	"time"

	"waveindex/internal/index"
)

// This file implements the wave's k-way merges. Probe results and scan
// streams arrive per-constituent already ordered — probes by (day,
// record, aux) within one bucket, scans by key — so the wave-level result
// is assembled by merging rather than by re-sorting the concatenation.
//
// A scan moves one key group at a time from the block store to the
// caller: each constituent's ScanGroups decodes a bucket's in-range
// entries once into their own slice, the producer sends that slice down
// its stream as is, and the consumer hands it to the caller whole. No
// layer visits entries one by one; only the per-entry wrappers
// (TimedSegmentScan[Ctx]) do, on the caller's goroutine. Cancellation is
// polled once per group, by producers before each send and by the
// consumer before each delivery.

// mergeEntryLists merges per-constituent probe results, each sorted by
// (day, record, aux), into one sorted slice. The list heads are selected
// linearly: k is the number of constituents, which is small.
func mergeEntryLists(lists [][]index.Entry) []index.Entry {
	live := lists[:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			live = append(live, l)
			total += len(l)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	out := make([]index.Entry, 0, total)
	heads := make([]int, len(live))
	for len(out) < total {
		best := -1
		for i, l := range live {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || index.CompareEntries(l[heads[i]], live[best][heads[best]]) < 0 {
				best = i
			}
		}
		out = append(out, live[best][heads[best]])
		heads[best]++
	}
	return out
}

// scanStreamBuf is the per-stream channel depth: deep enough to decouple
// producers from the consumer, shallow enough to bound buffered groups.
const scanStreamBuf = 16

// keyGroup is one search value's entries from one constituent, in that
// constituent's bucket order.
type keyGroup struct {
	key string
	es  []index.Entry
}

// scanStream carries one constituent's scan output, one key group at a
// time, to the merging consumer. err is written by the producer before
// ch is closed, so the consumer may read it after the channel drains.
type scanStream struct {
	ch   chan keyGroup
	err  error
	cur  keyGroup
	slot int
}

// produceScan runs one constituent's scan, sending each key group it
// yields straight down st.ch. The engine slot is held while the
// underlying scan reads and decodes, and released only when a send must
// block on a full stream, so a pool smaller than the number of streams
// cannot deadlock the merge (every stream still delivers its head
// group). Before each send the producer polls done and ctx — without
// taking their locks, which every producer of the scan shares — and
// aborts once either is closed.
func produceScan(ctx context.Context, eng *Engine, s Searcher, t1, t2 int, st *scanStream, done <-chan struct{}, tr Tracer) {
	start := time.Now()
	if !eng.acquireCtx(ctx) {
		st.err = ctx.Err()
		close(st.ch)
		return
	}
	cancelled := ctx.Done()
	entries := 0
	err := s.ScanGroups(t1, t2, func(k string, es []index.Entry) bool {
		entries += len(es)
		return sendGroup(eng, st.ch, keyGroup{key: k, es: es}, done, cancelled)
	})
	eng.release()
	if err == nil {
		err = ctx.Err()
	}
	emit(tr, TraceEvent{
		Kind: "scan.constituent", Start: start, Duration: time.Since(start),
		From: t1, To: t2, Constituent: st.slot, Entries: entries, TraceID: TraceIDFrom(ctx), Err: err,
	})
	st.err = err
	close(st.ch)
}

// sendGroup delivers g on ch for a producer holding an engine slot and
// reports whether the scan should go on: false once done or cancelled is
// closed. The closed checks are non-blocking receives, which read the
// channel state without locking it; only a send that finds ch full
// gives up the slot and blocks in a select on all three channels.
func sendGroup(eng *Engine, ch chan<- keyGroup, g keyGroup, done, cancelled <-chan struct{}) bool {
	select {
	case <-done:
		return false
	default:
	}
	select {
	case <-cancelled:
		return false
	default:
	}
	select {
	case ch <- g:
		return true
	default:
	}
	eng.release()
	defer eng.acquire()
	select {
	case ch <- g:
		return true
	case <-done:
		return false
	case <-cancelled:
		return false
	}
}

// streamHeap orders scan streams by their current group's key, ties
// broken by wave slot, so the merged scan visits keys in ascending order
// and, within a key, constituents in slot order.
type streamHeap []*scanStream

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	if h[i].cur.key != h[j].cur.key {
		return h[i].cur.key < h[j].cur.key
	}
	return h[i].slot < h[j].slot
}
func (h streamHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x any)   { *h = append(*h, x.(*scanStream)) }
func (h *streamHeap) Pop() (x any) { old := *h; n := len(old); x, *h = old[n-1], old[:n-1]; return }

// consumeScanStreams merges the streams' key groups on the caller's
// goroutine, handing fn each group whole. It returns once fn asks to
// stop (reported as true), ctx is done, or every stream is exhausted;
// per-stream errors are collected by the caller after the producers wind
// down. Cancellation is polled once per key group, before it is handed
// over.
func consumeScanStreams(ctx context.Context, streams []*scanStream, fn func(key string, es []index.Entry) bool) (stopped bool) {
	h := make(streamHeap, 0, len(streams))
	for _, st := range streams {
		if g, ok := <-st.ch; ok {
			st.cur = g
			h = append(h, st)
		}
	}
	heap.Init(&h)
	cancelled := ctx.Done()
	for h.Len() > 0 {
		select {
		case <-cancelled:
			return false
		default:
		}
		st := h[0]
		if !fn(st.cur.key, st.cur.es) {
			return true
		}
		if g, ok := <-st.ch; ok {
			st.cur = g
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return false
}
