package server

import (
	"fmt"
	"net"
	"testing"
	"time"

	"waveindex/internal/obs"
	"waveindex/internal/telemetry"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// startObsServer boots a server over the given backend with an event
// bus and SLO engine wired, returning a dialled client plus the bus.
func startObsServer(t *testing.T, b Backend, opts Options) (*Client, *obs.Bus) {
	t.Helper()
	bus := obs.NewBus(128)
	opts.Events = bus
	opts.SLO = obs.NewEngine(obs.Objectives{}, bus)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackend(b, opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		<-done
		b.Close()
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, bus
}

// infoEvents pages INFO events after since, capped at max when positive.
func infoEvents(c *Client, since uint64, max int) (telemetry.EventsPage, error) {
	var page telemetry.EventsPage
	err := c.Info("events", &page, fmt.Sprintf("since=%d", since), fmt.Sprintf("max=%d", max))
	return page, err
}

func obsIndex(t *testing.T) *wave.Index {
	t.Helper()
	idx, err := wave.New(wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEX})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestEventsCommandPagingAndCursor(t *testing.T) {
	c, bus := startObsServer(t, obsIndex(t), Options{})
	for i := 0; i < 5; i++ {
		bus.Publish(obs.Event{Type: obs.EventShed, Shard: -1, Cmd: "probe"})
	}
	page, err := infoEvents(c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 5 || page.Last != 5 || page.Dropped != 0 {
		t.Fatalf("Events(0,0) = %d events last=%d dropped=%d, want 5/5/0",
			len(page.Events), page.Last, page.Dropped)
	}
	for i, ev := range page.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Type != obs.EventShed || ev.Shard != -1 || ev.Cmd != "probe" {
			t.Fatalf("event round-trip mangled: %+v", ev)
		}
	}
	// Cursor resume: everything after seq 3.
	page, err = infoEvents(c, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 2 || page.Events[0].Seq != 4 {
		t.Fatalf("Events(3,0) = %d events starting %d, want 2 starting 4",
			len(page.Events), page.Events[0].Seq)
	}
	// max= truncation keeps Last resumable.
	page, err = infoEvents(c, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 2 || page.Last != 2 {
		t.Fatalf("Events(0,2) = %d events last=%d, want 2/2", len(page.Events), page.Last)
	}
	if page, err = infoEvents(c, page.Last, 0); err != nil || len(page.Events) != 3 {
		t.Fatalf("resume after truncation = %d events (%v), want 3", len(page.Events), err)
	}
}

// TestEventsCommandRingWrap overflows the bus ring (capacity 128 in
// startObsServer) and checks the dropped count survives the wire
// round-trip: a since=0 reader learns exactly how many events it lost,
// and a mid-wrap cursor is only charged for its own gap.
func TestEventsCommandRingWrap(t *testing.T) {
	c, bus := startObsServer(t, obsIndex(t), Options{})
	const published = 150 // capacity 128 → first retained seq is 23
	for i := 0; i < published; i++ {
		bus.Publish(obs.Event{Type: obs.EventShed, Shard: -1, Cmd: "probe"})
	}
	page, err := infoEvents(c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Dropped != 22 || len(page.Events) != 128 || page.Last != published {
		t.Fatalf("wrapped Events(0,0) = %d events last=%d dropped=%d, want 128/%d/22",
			len(page.Events), page.Last, page.Dropped, published)
	}
	if page.Events[0].Seq != 23 || page.Events[len(page.Events)-1].Seq != published {
		t.Fatalf("retained window [%d,%d], want [23,%d]",
			page.Events[0].Seq, page.Events[len(page.Events)-1].Seq, published)
	}
	// A cursor inside the dropped region is charged only for its gap.
	page, err = infoEvents(c, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Dropped != 12 || page.Events[0].Seq != 23 {
		t.Fatalf("Events(10,0) dropped=%d first=%d, want 12/23",
			page.Dropped, page.Events[0].Seq)
	}
	// A cursor already past the drop horizon loses nothing.
	page, err = infoEvents(c, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Dropped != 0 || len(page.Events) != 50 {
		t.Fatalf("Events(100,0) = %d events dropped=%d, want 50/0",
			len(page.Events), page.Dropped)
	}
}

// TestEventsCommandClampsStaleCursor sends a cursor from "before a
// restart" — ahead of everything the bus has ever numbered. The server
// must clamp the echoed Last back to the bus head instead of parroting
// the stale cursor, otherwise a polling client wedges forever waiting
// for sequences that restart renumbering will never reach.
func TestEventsCommandClampsStaleCursor(t *testing.T) {
	c, bus := startObsServer(t, obsIndex(t), Options{})
	for i := 0; i < 5; i++ {
		bus.Publish(obs.Event{Type: obs.EventShed, Shard: -1, Cmd: "probe"})
	}
	page, err := infoEvents(c, 1<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 0 || page.Last != 5 {
		t.Fatalf("stale cursor page = %d events last=%d, want 0 events last=5",
			len(page.Events), page.Last)
	}
	// The clamped cursor resumes the live stream.
	bus.Publish(obs.Event{Type: obs.EventShed, Shard: -1, Cmd: "count"})
	page, err = infoEvents(c, page.Last, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].Cmd != "count" {
		t.Fatalf("resume after clamp = %+v, want the new event", page)
	}
}

func TestEventsCommandWithoutBusErrs(t *testing.T) {
	idx := obsIndex(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close(); idx.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := infoEvents(c, 0, 0); err == nil {
		t.Fatal("INFO events without a bus should error")
	}
}

func TestSLOCommandReportsTraffic(t *testing.T) {
	c, _ := startObsServer(t, obsIndex(t), Options{})
	for day := 1; day <= 4; day++ {
		if err := c.AddDay(day, postingsFor(day, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Probe("k1"); err != nil {
			t.Fatal(err)
		}
	}
	var rep obs.Report
	if err := c.Info("slo", &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Objectives.Availability != 0.999 || rep.Objectives.BurnAlert != 2 {
		t.Fatalf("objectives = %+v, want defaults", rep.Objectives)
	}
	byCmd := map[string]obs.CommandSLO{}
	for _, cs := range rep.Commands {
		byCmd[cs.Cmd] = cs
	}
	for _, cmd := range []string{"addday", "probe"} {
		cs, ok := byCmd[cmd]
		if !ok {
			t.Fatalf("SLO report missing %q (have %v)", cmd, rep.Commands)
		}
		if len(cs.Windows) != 3 {
			t.Fatalf("%s has %d windows, want 3", cmd, len(cs.Windows))
		}
		if cs.Windows[0].Window != "1m" || cs.Windows[0].RateMilli <= 0 {
			t.Fatalf("%s 1m window = %+v, want positive rate", cmd, cs.Windows[0])
		}
	}
}

// shardedBackend builds a loaded 3-shard router with breakers armed.
func shardedBackend(t *testing.T) *shard.Router {
	t.Helper()
	r, err := shard.New(shard.Config{
		Shards:  3,
		Base:    wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEX},
		Breaker: shard.BreakerConfig{Threshold: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestShardMetricsCommand(t *testing.T) {
	r := shardedBackend(t)
	c, _ := startObsServer(t, r, Options{})
	for day := 1; day <= 5; day++ {
		if err := c.AddDay(day, postingsFor(day, 9)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Probe("k1"); err != nil {
		t.Fatal(err)
	}
	var doc telemetry.Shards
	if err := c.Info("shards", &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != 3 || len(doc.Breakers) != 3 {
		t.Fatalf("INFO shards returned %d shards and %d breakers, want 3/3",
			len(doc.Shards), len(doc.Breakers))
	}
	for i, m := range doc.Shards {
		if got := m.Counter("ingest_days_total"); got != 5 {
			t.Errorf("shard %d ingest_days_total = %d, want 5", i, got)
		}
		if b := doc.Breakers[i]; b.Shard != i || b.State != "closed" || b.Failures != 0 {
			t.Errorf("shard %d breaker = %+v, want closed/0", i, b)
		}
	}
}

func TestShardMetricsUnshardedFallback(t *testing.T) {
	c, _ := startObsServer(t, obsIndex(t), Options{})
	if err := c.AddDay(1, postingsFor(1, 3)); err != nil {
		t.Fatal(err)
	}
	var doc telemetry.Shards
	if err := c.Info("shards", &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != 1 || doc.Shards[0].Counter("ingest_days_total") != 1 {
		t.Fatalf("unsharded INFO shards = %+v, want one shard-0 snapshot", doc.Shards)
	}
	if len(doc.Breakers) != 0 {
		t.Errorf("unsharded breakers = %+v, want none", doc.Breakers)
	}
}

// TestSlowLogCarriesShard checks the INFO slowlog rows carry the
// 0-based shard from the router's merged log, and that entries from
// different shards interleave by recency.
func TestSlowLogCarriesShard(t *testing.T) {
	r := shardedBackend(t)
	c, _ := startObsServer(t, r, Options{})
	for day := 1; day <= 5; day++ {
		if err := c.AddDay(day, postingsFor(day, 9)); err != nil {
			t.Fatal(err)
		}
	}
	r.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	keyShard := map[string]int{}
	for _, k := range []string{"k0", "k1", "k2"} {
		keyShard[k] = r.ShardFor(k)
		if _, err := c.Probe(k); err != nil {
			t.Fatal(err)
		}
	}
	var log []wave.SlowQuery
	if err := c.Info("slowlog", &log); err != nil {
		t.Fatal(err)
	}
	if len(log) < 3 {
		t.Fatalf("slowlog has %d rows, want >= 3", len(log))
	}
	seen := map[string]int{}
	for _, e := range log {
		if e.Key != "" {
			seen[e.Key] = e.Shard
		}
	}
	for k, want := range keyShard {
		got, ok := seen[k]
		if !ok {
			t.Errorf("slowlog missing entry for %s", k)
			continue
		}
		if got != want {
			t.Errorf("slowlog entry for %s tagged shard %d, want %d", k, got, want)
		}
	}
}
