package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waveindex/internal/obs"
	"waveindex/internal/server"
	"waveindex/internal/simdisk"
	"waveindex/internal/telemetry"
	"waveindex/wave"
)

// eventsSince replays the admin /events endpoint from a cursor.
func eventsSince(t *testing.T, base string, since uint64) telemetry.EventsPage {
	t.Helper()
	_, body := get(t, fmt.Sprintf("%s/events?since=%d", base, since))
	var page telemetry.EventsPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("/events body %q: %v", body, err)
	}
	return page
}

// TestObsSmoke is the end-to-end sanity pass: a waved process serves a
// consistent timeline and SLO report over both the admin HTTP plane and
// the wire protocol.
func TestObsSmoke(t *testing.T) {
	a, c := startApp(t, config{
		adminAddr: "127.0.0.1:0",
		window:    3, indexes: 2, scheme: "REINDEX",
	})
	addDays(t, c, 5, 6) // past the window fill: transitions at days 4, 5
	if _, err := c.Probe("ka"); err != nil {
		t.Fatal(err)
	}

	base := "http://" + a.adminAddr()
	page := eventsSince(t, base, 0)
	if len(page.Events) == 0 || page.Dropped != 0 {
		t.Fatalf("/events = %d events dropped=%d, want events and no drops",
			len(page.Events), page.Dropped)
	}
	sawTransition := false
	for i, ev := range page.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Type == obs.EventTransition {
			sawTransition = true
		}
	}
	if !sawTransition {
		t.Fatalf("no wave.transition on the timeline: %+v", page.Events)
	}

	// INFO events replays the identical stream.
	var wire telemetry.EventsPage
	if err := c.Info("events", &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Events) < len(page.Events) {
		t.Fatalf("INFO events has %d events, HTTP had %d", len(wire.Events), len(page.Events))
	}
	for i, ev := range page.Events {
		w := wire.Events[i]
		if w.Seq != ev.Seq || w.Type != ev.Type || w.Shard != ev.Shard ||
			w.Phase != ev.Phase || w.Day != ev.Day {
			t.Fatalf("wire event %d = %+v, HTTP had %+v", i, w, ev)
		}
	}

	// SLO: both planes report probe and addday traffic under the default
	// objectives, and /metrics renders the same engine as slo_* series.
	var rep obs.Report
	if err := c.Info("slo", &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Objectives.Availability != 0.999 {
		t.Fatalf("SLO objectives = %+v, want 0.999 default", rep.Objectives)
	}
	cmds := map[string]bool{}
	for _, cs := range rep.Commands {
		cmds[cs.Cmd] = true
	}
	if !cmds["probe"] || !cmds["addday"] {
		t.Fatalf("SLO commands = %v, want probe and addday", cmds)
	}
	_, body := get(t, base+"/slo")
	var hrep obs.Report
	if err := json.Unmarshal([]byte(body), &hrep); err != nil {
		t.Fatalf("/slo body %q: %v", body, err)
	}
	if len(hrep.Commands) != len(rep.Commands) {
		t.Fatalf("/slo has %d commands, INFO slo had %d", len(hrep.Commands), len(rep.Commands))
	}
	_, body = get(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE slo_request_rate gauge",
		`slo_request_rate{cmd="probe",window="1m"}`,
		`slo_burn_ratio{cmd="addday",window="1h"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestChaosTimelineExactlyOnce is the acceptance chaos drill: a 3-shard
// journaled fleet is restarted (recovery on every shard), ingests more
// days (transitions), has a breaker tripped and closed via RECOVER, and
// serves one traced slow query. The full /events?since=0 replay must
// contain every lifecycle event exactly once, in seq order, with the
// trace ID linking the slow-query event to its span.
func TestChaosTimelineExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		adminAddr: "127.0.0.1:0",
		window:    3, indexes: 2, scheme: "REINDEX", shards: 3,
		journalDir: dir, ckptEvery: 2,
		brkThreshold: 2, brkCooldown: time.Hour, // close via RECOVER, not cooldown
	}

	// Generation 1: ingest past the window and stop, leaving journals.
	a1, c1 := startApp(t, cfg)
	addDays(t, c1, 5, 6)
	c1.Close()
	a1.shutdown(time.Second)

	// Generation 2: the fresh process recovers every shard on open.
	a2, c := startApp(t, cfg)
	base := "http://" + a2.adminAddr()

	cursor := uint64(0)
	stage := func(name string) []obs.Event {
		t.Helper()
		page := eventsSince(t, base, cursor)
		if page.Dropped != 0 {
			t.Fatalf("%s: ring dropped %d events", name, page.Dropped)
		}
		for i, ev := range page.Events {
			if ev.Seq != cursor+uint64(i)+1 {
				t.Fatalf("%s: event %d has seq %d, want %d", name, i, ev.Seq, cursor+uint64(i)+1)
			}
		}
		cursor += uint64(len(page.Events))
		return page.Events
	}
	count := func(evs []obs.Event, typ string) map[int]int {
		perShard := map[int]int{}
		for _, ev := range evs {
			if ev.Type == typ {
				perShard[ev.Shard]++
			}
		}
		return perShard
	}

	// Stage 1 — opening recovery: exactly one journal.recovery per shard,
	// and any replayed transitions appear once per (shard, day, phase).
	boot := stage("boot")
	rec := count(boot, obs.EventRecovery)
	for sh := 0; sh < 3; sh++ {
		if rec[sh] != 1 {
			t.Errorf("boot: shard %d has %d recovery events, want 1 (%v)", sh, rec[sh], rec)
		}
	}
	seenPhase := map[string]bool{}
	for _, ev := range boot {
		if ev.Type != obs.EventTransition {
			continue
		}
		key := fmt.Sprintf("%d/%d/%s", ev.Shard, ev.Day, ev.Phase)
		if seenPhase[key] {
			t.Errorf("boot: duplicate transition %s", key)
		}
		seenPhase[key] = true
	}

	// Stage 2 — live ingest: days 6 and 7 transition on every shard,
	// each phase boundary exactly once, checkpoints riding along.
	addDaysFrom(t, c, 6, 7, 6)
	ingest := stage("ingest")
	seenPhase = map[string]bool{}
	workPhases := map[int]int{}
	for _, ev := range ingest {
		if ev.Type != obs.EventTransition {
			continue
		}
		key := fmt.Sprintf("%d/%d/%s", ev.Shard, ev.Day, ev.Phase)
		if seenPhase[key] {
			t.Errorf("ingest: duplicate transition %s", key)
		}
		seenPhase[key] = true
		if ev.Phase == "work" {
			workPhases[ev.Shard]++
		}
	}
	for sh := 0; sh < 3; sh++ {
		if workPhases[sh] != 2 {
			t.Errorf("ingest: shard %d has %d work phases, want 2 (days 6, 7)", sh, workPhases[sh])
		}
	}
	if ckpt := count(ingest, obs.EventCheckpoint); len(ckpt) == 0 {
		t.Errorf("ingest: no checkpoint events despite ckptEvery=2")
	}

	// Stage 3 — trip one shard's breaker: exactly one closed→open.
	victim := a2.router.ShardFor("ka")
	stores := a2.router.JournaledShard(victim).Index().Stores()
	for _, st := range stores {
		st.FailProb(simdisk.OpRead, 1, 1, errors.New("injected read fault"))
	}
	for i := 0; i < 20; i++ {
		c.Probe("ka")
		if h, err := health(c); err == nil && h.OpenBreakers == 1 {
			break
		}
		if i == 19 {
			t.Fatal("breaker never opened")
		}
	}
	trip := stage("trip")
	var breakerEvs []obs.Event
	for _, ev := range trip {
		if ev.Type == obs.EventBreaker {
			breakerEvs = append(breakerEvs, ev)
		}
	}
	if len(breakerEvs) != 1 || breakerEvs[0].Shard != victim ||
		breakerEvs[0].Phase != "open" || breakerEvs[0].Cause != "closed" {
		t.Fatalf("trip: breaker events = %+v, want one closed→open on shard %d", breakerEvs, victim)
	}

	// Stage 4 — heal and RECOVER: the forced close announces exactly one
	// open→closed, and the recovery replays every shard once more.
	for _, st := range stores {
		st.ClearFaults()
	}
	if _, err := c.Recover(); err != nil {
		t.Fatalf("RECOVER: %v", err)
	}
	heal := stage("heal")
	breakerEvs = nil
	for _, ev := range heal {
		if ev.Type == obs.EventBreaker {
			breakerEvs = append(breakerEvs, ev)
		}
	}
	if len(breakerEvs) != 1 || breakerEvs[0].Shard != victim ||
		breakerEvs[0].Phase != "closed" || breakerEvs[0].Cause != "open" {
		t.Fatalf("heal: breaker events = %+v, want one open→closed on shard %d", breakerEvs, victim)
	}
	rec = count(heal, obs.EventRecovery)
	for sh := 0; sh < 3; sh++ {
		if rec[sh] != 1 {
			t.Errorf("heal: shard %d has %d recovery events, want 1 (%v)", sh, rec[sh], rec)
		}
	}

	// Stage 5 — a traced slow query: the event carries the wire trace ID
	// and the span ring holds a span with the same ID.
	a2.spanEvents.SetSlowThreshold(time.Nanosecond)
	if err := c.Trace("chaos-9"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Probe("ka"); err != nil {
		t.Fatalf("probe after RECOVER: %v", err)
	}
	slow := stage("slow")
	found := false
	for _, ev := range slow {
		if ev.Type == obs.EventSlowQuery && ev.TraceID == "chaos-9" && ev.Cmd == "probe" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no traced query.slow event: %+v", slow)
	}
	_, spans := get(t, base+"/debug/spans")
	if !strings.Contains(spans, `"trace_id":"chaos-9"`) {
		t.Fatalf("/debug/spans has no span with the event's trace id:\n%s", spans)
	}

	// Full replay: the whole timeline again from zero — every seq from 1
	// to the cursor, exactly once, nothing dropped.
	full := eventsSince(t, base, 0)
	if full.Dropped != 0 {
		t.Fatalf("full replay dropped %d", full.Dropped)
	}
	if uint64(len(full.Events)) < cursor {
		t.Fatalf("full replay has %d events, staged cursor reached %d", len(full.Events), cursor)
	}
	for i, ev := range full.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("full replay: event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// addDaysFrom ingests days [from, to] with perDay postings each.
func addDaysFrom(t *testing.T, c *server.Client, from, to, perDay int) {
	t.Helper()
	for d := from; d <= to; d++ {
		ps := make([]wave.Posting, 0, perDay)
		for i := 0; i < perDay; i++ {
			ps = append(ps, wave.Posting{
				Key:   "k" + string(rune('a'+i%3)),
				Entry: wave.Entry{RecordID: uint64(d*100 + i), Day: int32(d)},
			})
		}
		if err := c.AddDay(d, ps); err != nil {
			t.Fatalf("AddDay(%d): %v", d, err)
		}
	}
}

// TestObsEndpointsUnderFire hammers /metrics, /healthz, and /events
// while a 3-shard fleet ingests, answers queries, and has a breaker
// flipping open and closed. Run with -race, it is the data-race gate
// for the observability plane.
func TestObsEndpointsUnderFire(t *testing.T) {
	a, c := startApp(t, config{
		adminAddr: "127.0.0.1:0",
		window:    3, indexes: 2, scheme: "REINDEX", shards: 3,
		journalDir:   t.TempDir(),
		brkThreshold: 2, brkCooldown: 5 * time.Millisecond,
	})
	addDays(t, c, 4, 6)
	base := "http://" + a.adminAddr()

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f()
			}
		}()
	}

	// Ingest on its own connection. faultMu keeps the injected read
	// faults out of ingest's checkpoints and transitions — the flipper
	// holds it across each fault window, so ingest only ever sees a
	// healthy disk while queries race both of them freely.
	var faultMu sync.Mutex
	ingestC, err := server.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ingestC.Close()
	day := 4
	spawn(func() {
		faultMu.Lock()
		defer faultMu.Unlock()
		day++
		ps := []wave.Posting{
			{Key: "ka", Entry: wave.Entry{RecordID: uint64(day * 10), Day: int32(day)}},
			{Key: "kb", Entry: wave.Entry{RecordID: uint64(day*10 + 1), Day: int32(day)}},
		}
		if err := ingestC.AddDay(day, ps); err != nil {
			stop.Store(true)
			t.Errorf("AddDay(%d): %v", day, err)
		}
	})

	// Queries on their own connection; errors are expected while the
	// victim shard's breaker is open.
	queryC, err := server.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer queryC.Close()
	spawn(func() {
		queryC.Probe("ka")
		queryC.Count(0, 0)
	})

	// Breaker flipper: fault the victim's stores, probe it open, heal,
	// wait out the cooldown, probe it closed.
	victim := a.router.ShardFor("ka")
	flipC, err := server.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer flipC.Close()
	spawn(func() {
		faultMu.Lock()
		stores := a.router.JournaledShard(victim).Index().Stores()
		for _, st := range stores {
			st.FailProb(simdisk.OpRead, 1, 1, errors.New("injected read fault"))
		}
		for i := 0; i < 10; i++ {
			flipC.Probe("ka")
			if h, err := health(flipC); err == nil && h.OpenBreakers > 0 {
				break
			}
		}
		for _, st := range stores {
			st.ClearFaults()
		}
		faultMu.Unlock()
		time.Sleep(6 * time.Millisecond) // past the cooldown: half-open
		flipC.Probe("ka")                // the probe closes it
	})

	// HTTP scrapers.
	httpGet := func(url string) {
		resp, err := http.Get(url)
		if err != nil {
			return
		}
		resp.Body.Close()
	}
	spawn(func() { httpGet(base + "/metrics") })
	spawn(func() { httpGet(base + "/healthz") })
	var cursor atomic.Uint64
	spawn(func() {
		resp, err := http.Get(fmt.Sprintf("%s/events?since=%d", base, cursor.Load()))
		if err != nil {
			return
		}
		var page telemetry.EventsPage
		if json.NewDecoder(resp.Body).Decode(&page) == nil {
			cursor.Store(page.Last)
		}
		resp.Body.Close()
	})

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// The timeline survived the contention in order.
	page := eventsSince(t, base, 0)
	for i := 1; i < len(page.Events); i++ {
		if page.Events[i].Seq != page.Events[i-1].Seq+1 {
			t.Fatalf("timeline gap after contention: seq %d then %d",
				page.Events[i-1].Seq, page.Events[i].Seq)
		}
	}
	if h, err := health(c); err != nil || !h.Ready {
		t.Fatalf("fleet unhealthy after hammer: %+v err=%v", h, err)
	}
}
