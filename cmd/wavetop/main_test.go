package main

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"waveindex/internal/obs"
	"waveindex/internal/server"
	"waveindex/wave"
)

// startServer boots a waved-shaped server (index + event bus + SLO
// engine) on a loopback listener and returns a poller aimed at it.
func startServer(t *testing.T) (*poller, *obs.Bus) {
	t.Helper()
	bus := obs.NewBus(256)
	idx, err := wave.New(wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEX,
		Trace: obs.NewSpanEvents(bus, 0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	engine := obs.NewEngine(obs.Objectives{}, bus)
	srv := server.NewBackend(idx, server.Options{Events: bus, SLO: engine})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		<-done
		idx.Close()
	})
	c, err := server.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &poller{c: c, addr: l.Addr().String(), maxEvents: 10}, bus
}

func TestOnceFrameRendersAllSections(t *testing.T) {
	p, bus := startServer(t)

	// Drive some traffic so the SLO table and the timeline are non-empty
	// (past the window fill: transitions begin at day W+1 = 5).
	for day := 1; day <= 6; day++ {
		var ps []wave.Posting
		for i := 0; i < 5; i++ {
			ps = append(ps, wave.Posting{Key: fmt.Sprintf("k%d", i),
				Entry: wave.Entry{RecordID: uint64(day*10 + i), Day: int32(day)}})
		}
		if err := p.c.AddDay(day, ps); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.c.Probe("k1"); err != nil {
		t.Fatal(err)
	}
	bus.Publish(obs.Event{Type: obs.EventBreaker, Shard: 1, Phase: "open", Cause: "closed"})

	f := p.poll()
	if f.err != nil {
		t.Fatalf("poll: %v", f.err)
	}
	out := render(f)
	for _, want := range []string{
		"wavetop —", "status ok", "window [3,6]",
		"SLO", "availability 99.9%",
		"probe", "addday",
		"SHARDS", "HIT%", "BREAKER",
		"EVENTS", "wave.transition", "breaker.state", "shard=1 phase=open cause=closed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

// TestEventTailStreamsAcrossFrames checks the poller resumes from its
// events cursor: a second poll picks up only new events and the tail
// is bounded by maxEvents.
func TestEventTailStreamsAcrossFrames(t *testing.T) {
	p, bus := startServer(t)
	for i := 0; i < 4; i++ {
		bus.Publish(obs.Event{Type: obs.EventShed, Shard: -1, Cmd: "probe"})
	}
	f := p.poll()
	if f.err != nil {
		t.Fatalf("poll: %v", f.err)
	}
	n := len(f.events)
	if n != 4 {
		t.Fatalf("first frame has %d events, want 4", n)
	}
	for i := 0; i < 20; i++ {
		bus.Publish(obs.Event{Type: obs.EventShed, Shard: -1, Cmd: "count"})
	}
	f = p.poll()
	if f.err != nil {
		t.Fatalf("poll: %v", f.err)
	}
	if len(f.events) != p.maxEvents {
		t.Fatalf("tail has %d events, want capped at %d", len(f.events), p.maxEvents)
	}
	last := f.events[len(f.events)-1]
	if last.Seq != 24 {
		t.Fatalf("tail ends at seq %d, want 24", last.Seq)
	}
	for i := 1; i < len(f.events); i++ {
		if f.events[i].Seq != f.events[i-1].Seq+1 {
			t.Fatalf("tail not contiguous at %d: %d then %d", i, f.events[i-1].Seq, f.events[i].Seq)
		}
	}
}

// TestQPSDeltas checks per-shard QPS comes from counter deltas between
// polls, not cumulative totals.
func TestQPSDeltas(t *testing.T) {
	p, _ := startServer(t)
	for day := 1; day <= 4; day++ {
		if err := p.c.AddDay(day, []wave.Posting{{Key: "k",
			Entry: wave.Entry{RecordID: uint64(day), Day: int32(day)}}}); err != nil {
			t.Fatal(err)
		}
	}
	f := p.poll()
	if f.err != nil {
		t.Fatalf("poll: %v", f.err)
	}
	if len(f.qps) == 0 || f.qps[0] != 0 {
		t.Fatalf("first frame qps = %v, want a zero row", f.qps)
	}
	for i := 0; i < 50; i++ {
		if _, err := p.c.Probe("k"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // a measurable poll gap
	f = p.poll()
	if f.err != nil {
		t.Fatalf("poll: %v", f.err)
	}
	if len(f.qps) == 0 || f.qps[0] <= 0 {
		t.Fatalf("second frame qps = %v, want > 0", f.qps)
	}
}

// TestRestartDetection simulates a waved restart by aging the poller's
// cross-frame state past what the server reports: an events cursor
// ahead of the bus and query totals above the live counters. The frame
// must clamp QPS at 0 instead of going negative, resync the cursor,
// and carry the RESTARTED marker; the next frame streams normally.
func TestRestartDetection(t *testing.T) {
	p, bus := startServer(t)
	bus.Publish(obs.Event{Type: obs.EventShed, Shard: -1, Cmd: "probe"})

	p.cursor = 1 << 40
	p.prev = map[int]int64{0: 1 << 40}
	p.prevAt = time.Now().Add(-time.Second)
	f := p.poll()
	if f.err != nil {
		t.Fatalf("poll: %v", f.err)
	}
	if !f.restarted {
		t.Fatal("frame not marked restarted")
	}
	if len(f.qps) == 0 {
		t.Fatal("no qps rows")
	}
	for i, q := range f.qps {
		if q != 0 {
			t.Fatalf("qps[%d] = %v, want clamped to 0 after restart", i, q)
		}
	}
	if p.cursor >= 1<<40 {
		t.Fatalf("cursor %d not resynced to the server's sequence", p.cursor)
	}
	if out := render(f); !strings.Contains(out, "RESTARTED") {
		t.Fatalf("frame missing RESTARTED marker:\n%s", out)
	}

	bus.Publish(obs.Event{Type: obs.EventShed, Shard: -1, Cmd: "count"})
	f = p.poll()
	if f.err != nil {
		t.Fatalf("poll: %v", f.err)
	}
	if f.restarted {
		t.Fatal("second frame still marked restarted")
	}
	var streamed bool
	for _, ev := range f.events {
		if ev.Cmd == "count" {
			streamed = true
		}
	}
	if !streamed {
		t.Fatalf("post-resync event not streamed: %+v", f.events)
	}
}

// TestHitRatioColumn drives repeated probes against a result-cached
// index and checks the hit ratio surfaces through INFO shards into
// the SHARDS pane (and stays "-" on cache-less servers, which
// TestOnceFrameRendersAllSections's plain index covers implicitly).
func TestHitRatioColumn(t *testing.T) {
	bus := obs.NewBus(64)
	idx, err := wave.New(wave.Config{Window: 4, Indexes: 2, Scheme: wave.DEL,
		CacheResults: 4096, Trace: obs.NewSpanEvents(bus, 0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	engine := obs.NewEngine(obs.Objectives{}, bus)
	srv := server.NewBackend(idx, server.Options{Events: bus, SLO: engine})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		<-done
		idx.Close()
	})
	c, err := server.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	p := &poller{c: c, addr: l.Addr().String(), maxEvents: 10}

	for day := 1; day <= 4; day++ {
		if err := c.AddDay(day, []wave.Posting{{Key: "k",
			Entry: wave.Entry{RecordID: uint64(day), Day: int32(day)}}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Probe("k"); err != nil {
			t.Fatal(err)
		}
	}
	f := p.poll()
	if f.err != nil {
		t.Fatalf("poll: %v", f.err)
	}
	if len(f.shards.Shards) == 0 {
		t.Fatal("no shard rows")
	}
	r := hitRatio(f.shards.Shards[0])
	if r <= 0 || r > 100 {
		t.Fatalf("hit ratio = %v, want in (0,100] after repeated probes", r)
	}
	if out := render(f); strings.Contains(out, " - ") && !strings.Contains(out, fmt.Sprintf("%.1f", r)) {
		t.Fatalf("SHARDS pane missing hit ratio %.1f:\n%s", r, out)
	}
}

func TestRenderPollError(t *testing.T) {
	f := frame{addr: "nowhere:1", now: time.Now(), err: errors.New("connection refused")}
	out := render(f)
	if !strings.Contains(out, "POLL FAILED") || !strings.Contains(out, "connection refused") {
		t.Fatalf("error frame missing banner:\n%s", out)
	}
}
