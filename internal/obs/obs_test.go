package obs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/simdisk"
)

func TestBusOrderedSince(t *testing.T) {
	b := NewBus(256)
	for i := 0; i < 100; i++ {
		b.Publish(Event{Type: EventShed, Shard: i % 3})
	}
	evs, dropped := b.Since(0)
	if dropped != 0 {
		t.Fatalf("dropped %d events with room to spare", dropped)
	}
	if len(evs) != 100 {
		t.Fatalf("Since(0) returned %d events, want 100", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d has no timestamp", i)
		}
	}
	evs, _ = b.Since(97)
	if len(evs) != 3 || evs[0].Seq != 98 {
		t.Fatalf("Since(97) = %d events starting at %d, want 3 from 98", len(evs), evs[0].Seq)
	}
	if evs, _ := b.Since(100); len(evs) != 0 {
		t.Fatalf("Since(last) returned %d events, want 0", len(evs))
	}
}

func TestBusLossBounded(t *testing.T) {
	b := NewBus(8)
	for i := 0; i < 20; i++ {
		b.Publish(Event{Type: EventShed})
	}
	evs, dropped := b.Since(0)
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(13+i) {
			t.Fatalf("retained event %d has seq %d, want %d", i, ev.Seq, 13+i)
		}
	}
	// A cursor inside the retained range loses nothing.
	if _, dropped := b.Since(15); dropped != 0 {
		t.Fatalf("in-range cursor reported %d dropped", dropped)
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus(4096)
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(Event{Type: EventShed, Shard: g})
			}
		}(g)
	}
	wg.Wait()
	evs, dropped := b.Since(0)
	if dropped != 0 || len(evs) != goroutines*per {
		t.Fatalf("got %d events (%d dropped), want %d", len(evs), dropped, goroutines*per)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq gap at %d: %d", i, ev.Seq)
		}
	}
}

func TestBusWait(t *testing.T) {
	b := NewBus(16)
	done := make(chan []Event, 1)
	go func() {
		evs, _, err := b.Wait(context.Background(), 0)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		done <- evs
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish(Event{Type: EventBreaker, Shard: 1})
	select {
	case evs := <-done:
		if len(evs) != 1 || evs[0].Type != EventBreaker {
			t.Fatalf("Wait returned %+v", evs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on publish")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := b.Wait(ctx, b.LastSeq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait with no events returned %v, want deadline", err)
	}
}

func TestBusSubscription(t *testing.T) {
	b := NewBus(16)
	b.Publish(Event{Type: EventShed})
	sub := b.Subscribe() // positioned after seq 1
	b.Publish(Event{Type: EventBreaker})
	b.Publish(Event{Type: EventRecovery})
	evs, dropped, err := sub.Next(context.Background())
	if err != nil || dropped != 0 {
		t.Fatalf("Next: %v dropped=%d", err, dropped)
	}
	if len(evs) != 2 || evs[0].Type != EventBreaker || evs[1].Type != EventRecovery {
		t.Fatalf("Next returned %+v", evs)
	}
	b.Publish(Event{Type: EventShed})
	evs, _, _ = sub.Next(context.Background())
	if len(evs) != 1 || evs[0].Seq != 4 {
		t.Fatalf("second Next returned %+v", evs)
	}
}

func TestBusNilAndClosed(t *testing.T) {
	var b *Bus
	if seq := b.Publish(Event{}); seq != 0 {
		t.Fatalf("nil bus assigned seq %d", seq)
	}
	if evs, _ := b.Since(0); evs != nil {
		t.Fatal("nil bus returned events")
	}
	if _, _, err := b.Wait(context.Background(), 0); err != nil {
		t.Fatalf("nil Wait: %v", err)
	}
	b.Close()

	real := NewBus(4)
	waitDone := make(chan struct{})
	go func() {
		real.Wait(context.Background(), 0)
		close(waitDone)
	}()
	time.Sleep(5 * time.Millisecond)
	real.Close()
	select {
	case <-waitDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake waiter")
	}
	if seq := real.Publish(Event{}); seq != 0 {
		t.Fatal("closed bus accepted publish")
	}
}

func TestSpanEventsMapping(t *testing.T) {
	bus := NewBus(64)
	work := []simdisk.CauseStats{
		{Cause: simdisk.CauseTransition, Seeks: 10, BytesRead: 100, BytesWritten: 200},
	}
	se := NewSpanEvents(bus, 5*time.Millisecond, func() []simdisk.CauseStats { return work })

	base := time.UnixMicro(1700000000000000)
	se.TraceEvent(core.TraceEvent{Kind: "transition.pre", Start: base, Duration: time.Millisecond, Day: 3, Ops: 7, Shard: 2, Constituent: -1})
	se.TraceEvent(core.TraceEvent{Kind: "transition.work", Start: base, Duration: 2 * time.Millisecond, Day: 3, Ops: 50, Shard: 2, Constituent: -1})
	work = []simdisk.CauseStats{
		{Cause: simdisk.CauseTransition, Seeks: 14, BytesRead: 4196, BytesWritten: 8392},
	}
	se.TraceEvent(core.TraceEvent{Kind: "transition.work", Start: base, Duration: 2 * time.Millisecond, Day: 4, Ops: 50, Shard: 2, Constituent: -1})
	se.TraceEvent(core.TraceEvent{Kind: "journal.checkpoint", Start: base, Duration: time.Millisecond, Day: 4, Shard: 2, Constituent: -1})
	se.TraceEvent(core.TraceEvent{Kind: "journal.recovery", Start: base, Duration: time.Millisecond, Day: 4, Ops: 2, Shard: 1, Constituent: -1})
	se.TraceEvent(core.TraceEvent{Kind: "probe", Start: base, Duration: 10 * time.Millisecond, TraceID: "t-1", Shard: 3, Constituent: -1})
	se.TraceEvent(core.TraceEvent{Kind: "probe", Start: base, Duration: time.Millisecond, TraceID: "t-2", Shard: 3, Constituent: -1}) // under threshold
	se.TraceEvent(core.TraceEvent{Kind: "probe.constituent", Start: base, Duration: time.Hour, Constituent: 0})                       // never an event
	se.TraceEvent(core.TraceEvent{Kind: "snapshot.save", Start: base, Duration: time.Hour, Constituent: -1})                          // span-only

	evs, _ := bus.Since(0)
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
	}
	want := []string{EventTransition, EventTransition, EventTransition, EventCheckpoint, EventRecovery, EventSlowQuery}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event types %v, want %v", types, want)
	}
	if evs[0].Phase != "pre" || evs[0].Shard != 1 || evs[0].Day != 3 {
		t.Fatalf("pre event %+v", evs[0])
	}
	if evs[1].Fields["transition"] != "10/100/200" {
		t.Fatalf("first work delta %+v", evs[1].Fields)
	}
	if evs[2].Fields["transition"] != "4/4096/8192" {
		t.Fatalf("second work delta %+v", evs[2].Fields)
	}
	if evs[4].Ops != 2 || evs[4].Shard != 0 {
		t.Fatalf("recovery event %+v", evs[4])
	}
	if evs[5].TraceID != "t-1" || evs[5].Cmd != "probe" || evs[5].Shard != 2 {
		t.Fatalf("slow event %+v", evs[5])
	}

	se.SetSlowThreshold(0)
	se.TraceEvent(core.TraceEvent{Kind: "probe", Start: base, Duration: time.Hour, Constituent: -1})
	if evs, _ := bus.Since(0); len(evs) != 6 {
		t.Fatalf("disabled threshold still published (%d events)", len(evs))
	}
}

func TestSLOEngineBurnAndReport(t *testing.T) {
	bus := NewBus(64)
	now := time.UnixMicro(1700000000000000)
	e := NewEngine(Objectives{Availability: 0.9, LatencyUS: 1000, BurnAlert: 2}, bus)
	e.now = func() time.Time { return now }

	// 100 good fast requests: no alert.
	for i := 0; i < 100; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Record("probe", 100*time.Microsecond, nil)
	}
	if evs, _ := bus.Since(0); len(evs) != 0 {
		t.Fatalf("healthy stream raised %d events", len(evs))
	}

	// A burst of failures: error budget is 10%, so >20% bad crosses
	// burn 2 and raises an alert in the 1m window.
	boom := errors.New("boom")
	for i := 0; i < 80; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Record("probe", 100*time.Microsecond, boom)
	}
	evs, _ := bus.Since(0)
	if len(evs) == 0 || evs[0].Type != EventSLOBurn || evs[0].Cmd != "probe" {
		t.Fatalf("no burn event after failure burst: %+v", evs)
	}
	burnSeen := bus.LastSeq()

	rep := e.Report()
	if len(rep.Commands) != 1 || rep.Commands[0].Cmd != "probe" {
		t.Fatalf("report commands %+v", rep.Commands)
	}
	oneMin := rep.Commands[0].Windows[0]
	if oneMin.Window != "1m" || !oneMin.Alerting || oneMin.BurnMilli < 2000 {
		t.Fatalf("1m window %+v", oneMin)
	}
	if oneMin.QuantileUS == 0 {
		t.Fatalf("no latency quantile in %+v", oneMin)
	}

	// Long healthy stretch: burn decays and the alert clears.
	for i := 0; i < 3000; i++ {
		now = now.Add(100 * time.Millisecond)
		e.Record("probe", 100*time.Microsecond, nil)
	}
	cleared := false
	evs, _ = bus.Since(burnSeen)
	for _, ev := range evs {
		if ev.Type == EventSLOOK && ev.Cause == "1m" {
			cleared = true
		}
	}
	if !cleared {
		t.Fatalf("alert never cleared; events since burn: %+v", evs)
	}

	// Slow requests violate the latency objective without erroring.
	for i := 0; i < 50; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Record("scan", 5*time.Millisecond, nil)
	}
	rep = e.Report()
	var scan *CommandSLO
	for i := range rep.Commands {
		if rep.Commands[i].Cmd == "scan" {
			scan = &rep.Commands[i]
		}
	}
	if scan == nil || scan.Windows[0].SlowMilli < 900 {
		t.Fatalf("slow requests not accounted: %+v", scan)
	}
}

func TestSLOEngineNil(t *testing.T) {
	var e *Engine
	e.Record("probe", time.Millisecond, nil)
	if rep := e.Report(); len(rep.Commands) != 0 {
		t.Fatal("nil engine reported commands")
	}
	if o := e.Objectives(); o.Availability != 0 {
		t.Fatal("nil engine has objectives")
	}
}

func TestLatBuckets(t *testing.T) {
	for _, us := range []int64{0, 1, 2, 3, 1000, 1 << 40} {
		b := latBucketOf(us)
		if us > latBucketBound(b) {
			t.Fatalf("latency %dus over its bucket bound %d (bucket %d)", us, latBucketBound(b), b)
		}
		if b > 0 && us <= latBucketBound(b-1) {
			t.Fatalf("latency %dus fits bucket %d", us, b-1)
		}
	}
	if got := latBucketOf(-5); got != 0 {
		t.Fatalf("negative latency bucket %d", got)
	}
}
