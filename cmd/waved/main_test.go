package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waveindex/internal/server"
	"waveindex/internal/simdisk"
	"waveindex/internal/telemetry"
	"waveindex/wave"
)

// startApp builds and serves an app on loopback ports, returning it
// with a dialled protocol client.
func startApp(t *testing.T, cfg config) (*app, *server.Client) {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.serve() }()
	t.Cleanup(func() {
		a.shutdown(time.Second)
		<-done
	})
	c, err := server.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return a, c
}

func addDays(t *testing.T, c *server.Client, days, perDay int) {
	t.Helper()
	for d := 1; d <= days; d++ {
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

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp, string(body)
}

func TestAdminAddrFlagPlumbing(t *testing.T) {
	a, c := startApp(t, config{
		adminAddr: "127.0.0.1:0",
		window:    3, indexes: 2, scheme: "REINDEX",
	})
	if a.adminAddr() == "" {
		t.Fatal("admin server not started despite adminAddr")
	}
	addDays(t, c, 4, 6)
	if _, err := c.Probe("ka"); err != nil {
		t.Fatal(err)
	}

	base := "http://" + a.adminAddr()
	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.MetricsContentType {
		t.Fatalf("/metrics content type = %q, want %q", ct, telemetry.MetricsContentType)
	}
	for _, want := range []string{
		"# TYPE query_probe_total counter",
		"query_probe_total 1",
		"ingest_days_total 4",
		`work_seeks_total{cause="query"}`,
		`work_bytes_written_total{cause="transition"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, body = get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	var h telemetry.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	if !h.Ready || h.Journaled || h.NeedsRecovery {
		t.Errorf("/healthz = %+v, want ready non-journaled", h)
	}

	if resp, _ = get(t, base+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

func TestNoAdminByDefault(t *testing.T) {
	a, _ := startApp(t, config{window: 3, indexes: 2, scheme: "DEL"})
	if a.adminAddr() != "" {
		t.Fatalf("admin server started without adminAddr: %s", a.adminAddr())
	}
	if a.sink != nil {
		t.Fatal("span sink allocated without adminAddr or traceOut")
	}
}

func TestTraceOutWritesChromeTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spans.json")
	a, err := newApp(config{
		addr: "127.0.0.1:0", traceOut: out,
		window: 3, indexes: 2, scheme: "REINDEX",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.serve() }()
	c, err := server.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	addDays(t, c, 4, 3)
	if err := c.Trace("shutdown-trace"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Probe("ka"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	a.shutdown(time.Second)
	<-done

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace-out is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) < 2 {
		t.Fatalf("trace-out has %d events", len(trace.TraceEvents))
	}
	found := false
	for _, ev := range trace.TraceEvents {
		if args, ok := ev["args"].(map[string]any); ok && args["trace_id"] == "shutdown-trace" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no span carries the wire trace id; raw:\n%s", raw)
	}
}

func TestShardedServer(t *testing.T) {
	a, c := startApp(t, config{
		adminAddr: "127.0.0.1:0",
		window:    3, indexes: 2, scheme: "REINDEX", shards: 3,
	})
	if a.router == nil || a.router.Shards() != 3 {
		t.Fatal("sharded config did not build a 3-shard router")
	}
	addDays(t, c, 4, 6)
	// The protocol is oblivious to sharding: queries scatter-gather.
	es, err := c.Probe("ka")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) == 0 {
		t.Fatal("sharded Probe returned no entries")
	}
	n, err := c.Count(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3*6 {
		t.Fatalf("sharded Count = %d, want %d", n, 3*6)
	}
	from, to, ready, err := c.Window()
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 || to != 4 || !ready {
		t.Fatalf("sharded window = [%d, %d] ready=%v, want [2, 4] ready", from, to, ready)
	}

	// /metrics carries both the fleet rollup and per-shard labelled series.
	_, body := get(t, "http://"+a.adminAddr()+"/metrics")
	for _, want := range []string{
		"# TYPE query_probe_total counter",
		"# TYPE shard_query_probe_total counter",
		`shard_query_probe_total{shard="0"}`,
		`shard_query_probe_total{shard="2"}`,
		`shard_ingest_days_total{shard="1"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	_, body = get(t, "http://"+a.adminAddr()+"/healthz")
	var h telemetry.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	if !h.Ready || h.Journaled {
		t.Errorf("/healthz = %+v, want ready non-journaled", h)
	}
	// The wire INFO health must agree: the router has a Recover method, but
	// this fleet carries no journals.
	wh, err := health(c)
	if err != nil {
		t.Fatal(err)
	}
	if !wh.Ready || wh.Journaled {
		t.Errorf("INFO health = %+v, want ready non-journaled", wh)
	}
	if _, err := c.Recover(); err == nil {
		t.Error("RECOVER accepted on a non-journaled sharded fleet")
	}
}

func TestShardedJournalRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		window: 3, indexes: 2, scheme: "REINDEX", shards: 2,
		journalDir: dir,
	}
	a, c := startApp(t, cfg)
	addDays(t, c, 5, 6)
	ref, err := c.Probe("kb")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	a.shutdown(time.Second)

	// A fresh process over the same journal dir recovers every shard.
	a2, c2 := startApp(t, cfg)
	if !a2.router.Journaled() {
		t.Fatal("restarted router not journaled")
	}
	es, err := c2.Probe("kb")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != len(ref) {
		t.Fatalf("post-restart Probe = %d entries, want %d", len(es), len(ref))
	}
	if err := c2.AddDay(6, []wave.Posting{{Key: "kb", Entry: wave.Entry{RecordID: 600, Day: 6}}}); err != nil {
		t.Fatalf("AddDay after restart: %v", err)
	}
}

func TestJournaledHealthz(t *testing.T) {
	a, c := startApp(t, config{
		adminAddr: "127.0.0.1:0",
		window:    3, indexes: 2, scheme: "REINDEX",
		journalDir: t.TempDir(),
	})
	addDays(t, c, 3, 3)
	_, body := get(t, "http://"+a.adminAddr()+"/healthz")
	var h telemetry.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	if !h.Journaled || !h.Ready {
		t.Errorf("/healthz = %+v, want journaled ready", h)
	}
}

// TestResilienceFlagPlumbing drives the resilience flags end to end:
// a sharded journaled fleet with breakers and admission control, whose
// breaker state shows up in /metrics, /healthz, INFO health, and closes via
// RECOVER.
func TestResilienceFlagPlumbing(t *testing.T) {
	a, c := startApp(t, config{
		adminAddr: "127.0.0.1:0",
		window:    3, indexes: 2, scheme: "REINDEX",
		shards:       3,
		journalDir:   t.TempDir(),
		maxInFlight:  4,
		brkThreshold: 2,
		brkCooldown:  time.Hour, // close via RECOVER, not a half-open probe
	})
	addDays(t, c, 4, 6)
	if _, err := c.Probe("ka"); err != nil {
		t.Fatal(err)
	}

	base := "http://" + a.adminAddr()
	_, body := get(t, base+"/metrics")
	for _, want := range []string{
		`shard_breaker_state{shard="0"} 0`,
		`shard_breaker_state{shard="2"} 0`,
		"server_conns_total", // merged wire-level registry
		"server_queries_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Black out the shard owning "ka" and trip its breaker.
	target := a.router.ShardFor("ka")
	stores := a.router.JournaledShard(target).Index().Stores()
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
	h, err := health(c)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.OpenBreakers != 1 {
		t.Fatalf("INFO health with open breaker = %+v", h)
	}
	_, body = get(t, base+"/metrics")
	if !strings.Contains(body, fmt.Sprintf("shard_breaker_state{shard=%q} 2", fmt.Sprint(target))) {
		t.Errorf("/metrics missing open breaker for shard %d:\n%s", target, body)
	}
	_, body = get(t, base+"/healthz")
	var th telemetry.Health
	if err := json.Unmarshal([]byte(body), &th); err != nil {
		t.Fatal(err)
	}
	if th.OpenBreakers != 1 {
		t.Errorf("/healthz openBreakers = %d, want 1", th.OpenBreakers)
	}

	// Clear the fault; RECOVER closes the breaker and service resumes.
	for _, st := range stores {
		st.ClearFaults()
	}
	if _, err := c.Recover(); err != nil {
		t.Fatalf("RECOVER: %v", err)
	}
	h, err = health(c)
	if err != nil {
		t.Fatal(err)
	}
	if h.OpenBreakers != 0 {
		t.Fatalf("breaker still open after RECOVER: %+v", h)
	}
	if _, err := c.Probe("ka"); err != nil {
		t.Fatalf("probe after RECOVER: %v", err)
	}
}

// health fetches the INFO health document over the wire.
func health(c *server.Client) (telemetry.Health, error) {
	var h telemetry.Health
	err := c.Info("health", &h)
	return h, err
}
