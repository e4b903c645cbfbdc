// Command waved serves a wave index over a line-oriented TCP protocol —
// the deployment shape of the paper's motivating Web services. See
// internal/server for the protocol.
//
// Usage:
//
//	waved [-addr :7070] [-window 7] [-indexes 4] [-shards 1]
//	      [-scheme REINDEX] [-update simple-shadow] [-store path]
//	      [-stores 1] [-parallel 0] [-async] [-slowlog-ms 0] [-trace]
//	      [-admin-addr :9090] [-trace-out spans.json]
//	      [-journal dir] [-checkpoint-every 0]
//	      [-read-timeout 0] [-shutdown-grace 5s]
//	      [-max-inflight 0] [-admission-wait 0]
//	      [-breaker-threshold 0] [-breaker-cooldown 0]
//	      [-events 0] [-slo-latency-ms 0] [-slo-availability 0]
//	      [-cache-blocks 0] [-cache-results 0]
//
// With -shards N > 1 the daemon serves a hash-partitioned fleet of N
// wave indexes behind the same protocol (see wave/shard): queries
// scatter-gather across the shards, ADDDAY runs every shard's
// transition concurrently, and with -journal each shard journals and
// recovers independently under <dir>/shard-<i>. /metrics additionally
// exports shard_-prefixed {shard="i"}-labelled per-shard series.
//
// With -max-inflight the server sheds excess concurrent queries with a
// retryable "ERR BUSY retry-after=<ms>" instead of queueing without
// bound, and with -breaker-threshold each shard gets a query circuit
// breaker: a shard failing that many queries in a row is skipped —
// clients that opted in via PARTIAL on get the healthy remainder with a
// DEGRADED annotation, everyone else gets a retryable UNAVAILABLE — and
// is probed again after -breaker-cooldown (or closed by RECOVER).
//
// Every waved runs an always-on observability plane: a bounded event
// timeline (wave transitions with their phase boundaries, journal
// checkpoints and recoveries, breaker flips, admission sheds, degraded
// replies, slow queries) served as INFO events, and a rolling-window
// SLO engine (per-command rate/error/latency over 1m, 5m, and 1h with
// error-budget burn rates) served as INFO slo. -events sets the
// timeline's ring capacity; -slo-latency-ms and -slo-availability set
// the objectives. Watch it all live with the wavetop command.
//
// With -cache-blocks N each store gets an N-block LRU buffer pool, and
// with -cache-results N a per-constituent result cache of N rows
// memoizes probe buckets and aggregates against constituent
// generations — wave transitions invalidate only the rebuilt
// constituents' entries. INFO cache and /cache serve the combined
// snapshot; cache_* gauges ride INFO metrics and /metrics.
//
// With -admin-addr an HTTP admin server runs alongside the line
// protocol: /metrics (Prometheus text format, including the per-cause
// work ledger and slo_* series), /healthz, /slo, /cache, /events (the
// same JSON documents, byte for byte, as INFO health, slo, cache and
// events; /events adds wait= long-polling), /debug/pprof/*, and
// /debug/spans (recent spans as Chrome trace JSON with timeline events
// interleaved as instant markers). With -trace-out the retained spans are also written to the
// named file as Chrome trace JSON on shutdown.
//
// Try it:
//
//	waved &
//	printf 'ADDDAY 1 1\nhello 1 0\nWINDOW\nQUIT\n' | nc localhost 7070
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/obs"
	"waveindex/internal/server"
	"waveindex/internal/telemetry"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// logTracer prints every span to the process log; enabled by -trace.
type logTracer struct{ l *log.Logger }

func (t logTracer) TraceEvent(ev wave.TraceEvent) {
	switch {
	case ev.Err != nil:
		t.l.Printf("%s %v err=%v", ev.Kind, ev.Duration, ev.Err)
	case ev.Key != "" || ev.Keys > 0:
		t.l.Printf("%s %v key=%q keys=%d days=[%d,%d] entries=%d", ev.Kind, ev.Duration, ev.Key, ev.Keys, ev.From, ev.To, ev.Entries)
	case ev.Day != 0:
		t.l.Printf("%s %v day=%d ops=%d", ev.Kind, ev.Duration, ev.Day, ev.Ops)
	default:
		t.l.Printf("%s %v days=[%d,%d] entries=%d", ev.Kind, ev.Duration, ev.From, ev.To, ev.Entries)
	}
}

// multiTracer fans every span out to several tracers, e.g. the stderr
// log and the admin server's span ring.
type multiTracer []wave.Tracer

func (m multiTracer) TraceEvent(ev wave.TraceEvent) {
	for _, t := range m {
		t.TraceEvent(ev)
	}
}

// config is waved's full configuration; main fills it from flags,
// tests construct it directly.
type config struct {
	addr          string
	adminAddr     string
	window        int
	indexes       int
	shards        int
	scheme        string
	update        string
	storePath     string
	stores        int
	parallel      int
	async         bool
	slowlogMS     int
	trace         bool
	traceOut      string
	journalDir    string
	ckptEvery     int
	readTimeout   time.Duration
	shutdownGrace time.Duration
	maxInFlight   int
	admissionWait time.Duration
	brkThreshold  int
	brkCooldown   time.Duration
	cacheBlocks   int                              // per-store block buffer pool size in blocks (0 = off)
	cacheResults  int                              // per-constituent result cache size in rows (0 = off)
	eventsCap     int                              // event-timeline ring capacity (0 = obs default, 4096)
	sloLatencyMS  int                              // SLO latency objective in ms (0 = availability only)
	sloAvail      float64                          // SLO availability objective (0 = 0.999 default)
	logf          func(format string, args ...any) // nil silences logs
}

// app is a built-but-not-yet-serving waved process: the backend (a
// plain index, a journaled index, or a shard router), the protocol
// server with its bound listener, and (optionally) the admin HTTP
// server and span ring.
type app struct {
	cfg        config
	srv        *server.Server
	ln         net.Listener
	admin      *telemetry.Server
	sink       *telemetry.SpanSink
	b          server.Backend
	router     *shard.Router
	bus        *obs.Bus        // fleet-wide event timeline
	slo        *obs.Engine     // rolling-window SLO engine
	spanEvents *obs.SpanEvents // span → timeline-event adapter
}

// newApp builds the index and binds both listeners. On success the
// caller owns the app and must call shutdown (or serve then shutdown).
func newApp(cfg config) (*app, error) {
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	kind, err := core.ParseKind(cfg.scheme)
	if err != nil {
		return nil, err
	}
	var tech wave.UpdateTechnique
	switch cfg.update {
	case "", "simple-shadow":
		tech = wave.SimpleShadow
	case "inplace":
		tech = wave.InPlace
	case "packed-shadow":
		tech = wave.PackedShadow
	default:
		return nil, fmt.Errorf("unknown update technique %q", cfg.update)
	}

	wcfg := wave.Config{
		Window:             cfg.window,
		Indexes:            cfg.indexes,
		Scheme:             kind,
		Update:             tech,
		StorePath:          cfg.storePath,
		Stores:             cfg.stores,
		Parallelism:        cfg.parallel,
		CacheBlocks:        cfg.cacheBlocks,
		CacheResults:       cfg.cacheResults,
		SlowQueryThreshold: time.Duration(cfg.slowlogMS) * time.Millisecond,
	}
	a := &app{cfg: cfg}
	// Observability plane: every waved runs the event timeline and SLO
	// engine — they are a bounded ring and a few decayed counters, cheap
	// enough to keep always-on. The spanEvents adapter turns transition,
	// checkpoint, recovery, and slow-query spans into timeline events;
	// its Work closure reads a.b lazily, after the backend is built.
	a.bus = obs.NewBus(cfg.eventsCap)
	a.slo = obs.NewEngine(obs.Objectives{
		Availability: cfg.sloAvail,
		LatencyUS:    int64(cfg.sloLatencyMS) * 1000,
	}, a.bus)
	a.spanEvents = obs.NewSpanEvents(a.bus, wcfg.SlowQueryThreshold,
		func() []wave.CauseStats {
			// Nil until the backend is built: opening recovery replays
			// days (emitting transition spans) before a.b is assigned.
			if a.b == nil {
				return nil
			}
			return a.b.Work()
		})
	var tracers multiTracer
	tracers = append(tracers, a.spanEvents)
	if cfg.trace {
		tracers = append(tracers, logTracer{log.New(os.Stderr, "trace: ", log.Lmicroseconds)})
	}
	if cfg.adminAddr != "" || cfg.traceOut != "" {
		a.sink = telemetry.NewSpanSink(0)
		tracers = append(tracers, a.sink)
	}
	switch len(tracers) {
	case 0:
	case 1:
		wcfg.Trace = tracers[0]
	default:
		wcfg.Trace = tracers
	}

	opts := server.Options{
		ReadTimeout:   cfg.readTimeout,
		AsyncIngest:   cfg.async,
		MaxInFlight:   cfg.maxInFlight,
		AdmissionWait: cfg.admissionWait,
		Events:        a.bus,
		SLO:           a.slo,
	}
	switch {
	case cfg.shards > 1:
		scfg := shard.Config{
			Shards:  cfg.shards,
			Base:    wcfg,
			Breaker: shard.BreakerConfig{Threshold: cfg.brkThreshold, Cooldown: cfg.brkCooldown},
			OnBreakerChange: func(sh int, from, to shard.BreakerState) {
				a.bus.Publish(obs.Event{
					Type: obs.EventBreaker, Shard: sh,
					Phase: to.String(), Cause: from.String(),
				})
			},
		}
		if cfg.journalDir != "" {
			r, err := shard.OpenJournalDir(scfg, cfg.journalDir, wave.JournalOptions{CheckpointEvery: cfg.ckptEvery})
			if err != nil {
				return nil, err
			}
			a.router = r
			cfg.logf("waved: opened %d journaled shards under %s", cfg.shards, cfg.journalDir)
		} else {
			r, err := shard.New(scfg)
			if err != nil {
				return nil, err
			}
			a.router = r
		}
		a.b = a.router
	case cfg.journalDir != "":
		st, err := wave.OpenJournalDir(cfg.journalDir)
		if err != nil {
			return nil, err
		}
		hadCkpt := st.HasCheckpoint()
		jr, err := wave.OpenJournaled(wcfg, st, wave.JournalOptions{CheckpointEvery: cfg.ckptEvery})
		if err != nil {
			return nil, err
		}
		if hadCkpt {
			cfg.logf("waved: recovered journaled index from %s", cfg.journalDir)
		}
		a.b = jr
	default:
		idx, err := wave.New(wcfg)
		if err != nil {
			return nil, err
		}
		a.b = idx
	}
	a.srv = server.NewBackend(a.b, opts)
	admin := a.srv.AdminOptions()
	if cfg.cacheResults > 0 && admin.Cache != nil {
		// Each completed transition publishes a cache.invalidate event
		// when constituent generations purged cached results.
		a.spanEvents.SetCacheSampler(func() (int64, int64) {
			ci := admin.Cache()
			return ci.Results.Invalidated, ci.Results.Entries
		})
	}

	a.ln, err = net.Listen("tcp", cfg.addr)
	if err != nil {
		a.closeIndex()
		return nil, err
	}
	if cfg.adminAddr != "" {
		// The server's own document hooks, so every admin endpoint
		// serves what the matching INFO section answers.
		admin.Spans = a.sink
		a.admin, err = telemetry.Serve(cfg.adminAddr, admin)
		if err != nil {
			a.ln.Close()
			a.closeIndex()
			return nil, err
		}
		cfg.logf("waved: admin server on http://%s (/metrics /healthz /debug/pprof/ /debug/spans)", a.admin.Addr())
	}
	return a, nil
}

// addr returns the protocol listener's bound address.
func (a *app) addr() string { return a.ln.Addr().String() }

// adminAddr returns the admin server's bound address ("" if disabled).
func (a *app) adminAddr() string {
	if a.admin == nil {
		return ""
	}
	return a.admin.Addr()
}

// serve runs the protocol server until the listener closes.
func (a *app) serve() error { return a.srv.Serve(a.ln) }

// shutdown drains in-flight queries, stops the admin server, writes
// the -trace-out file, and closes the index.
func (a *app) shutdown(grace time.Duration) {
	a.ln.Close()
	a.srv.Shutdown(grace)
	if a.bus != nil {
		a.bus.Close()
	}
	if a.admin != nil {
		a.admin.Close()
	}
	if a.cfg.traceOut != "" && a.sink != nil {
		if err := a.writeTraceOut(); err != nil {
			a.cfg.logf("waved: writing %s: %v", a.cfg.traceOut, err)
		} else {
			a.cfg.logf("waved: wrote %d spans to %s", len(a.sink.Events()), a.cfg.traceOut)
		}
	}
	a.closeIndex()
}

func (a *app) writeTraceOut() error {
	f, err := os.Create(a.cfg.traceOut)
	if err != nil {
		return err
	}
	if err := a.sink.WriteChrome(f, "waved"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (a *app) closeIndex() {
	if a.b != nil {
		a.b.Close()
	}
}

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	adminAddr := flag.String("admin-addr", "", "HTTP admin address serving /metrics, /healthz, /debug/pprof/ (disabled when empty)")
	window := flag.Int("window", 7, "window length W in days")
	indexes := flag.Int("indexes", 4, "constituent index count n")
	shards := flag.Int("shards", 1, "hash-partitioned shard count (1 = unsharded; see wave/shard)")
	schemeName := flag.String("scheme", "REINDEX", "maintenance scheme")
	update := flag.String("update", "simple-shadow", "update technique: inplace, simple-shadow, packed-shadow")
	storePath := flag.String("store", "", "file-backed store path (default: RAM)")
	stores := flag.Int("stores", 1, "block store count (constituents spread round-robin)")
	parallel := flag.Int("parallel", 0, "query worker bound (0 = one per store, or per constituent)")
	async := flag.Bool("async", false, "pipeline ADDDAY: queue the transition and respond immediately (failures surface on FLUSH)")
	slowlogMS := flag.Int("slowlog-ms", 0, "slow-query log threshold in ms (0 = disabled; see INFO slowlog)")
	trace := flag.Bool("trace", false, "log every trace span (queries, transitions, snapshots) to stderr")
	traceOut := flag.String("trace-out", "", "write retained spans as Chrome trace JSON to this file on shutdown")
	journalDir := flag.String("journal", "", "transition journal directory (enables crash-safe ingestion + RECOVER)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint the journal every N days (0 = default cadence)")
	readTimeout := flag.Duration("read-timeout", 0, "per-line read deadline (0 = none); guards stalled clients")
	shutdownGrace := flag.Duration("shutdown-grace", 5*time.Second, "grace period draining in-flight queries on SIGINT")
	maxInFlight := flag.Int("max-inflight", 0, "admission control: max concurrently-executing queries, excess shed with BUSY (0 = unlimited)")
	admissionWait := flag.Duration("admission-wait", 0, "how long a query may queue for an admission slot before BUSY (0 = 10ms default)")
	brkThreshold := flag.Int("breaker-threshold", 0, "consecutive failures opening a shard's circuit breaker (0 = breakers disabled; needs -shards > 1)")
	brkCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 1s default)")
	cacheBlocks := flag.Int("cache-blocks", 0, "per-store block buffer pool size in blocks (0 = disabled)")
	cacheResults := flag.Int("cache-results", 0, "per-constituent result cache size in result rows (0 = disabled; see INFO cache and /cache)")
	eventsCap := flag.Int("events", 0, "event-timeline ring capacity (0 = 4096 default; see INFO events and /events)")
	sloLatencyMS := flag.Int("slo-latency-ms", 0, "SLO latency objective in ms at the p99 (0 = availability objective only)")
	sloAvail := flag.Float64("slo-availability", 0, "SLO availability objective, fraction of good requests (0 = 0.999 default)")
	flag.Parse()

	a, err := newApp(config{
		addr:          *addr,
		adminAddr:     *adminAddr,
		window:        *window,
		indexes:       *indexes,
		shards:        *shards,
		scheme:        *schemeName,
		update:        *update,
		storePath:     *storePath,
		stores:        *stores,
		parallel:      *parallel,
		async:         *async,
		slowlogMS:     *slowlogMS,
		trace:         *trace,
		traceOut:      *traceOut,
		journalDir:    *journalDir,
		ckptEvery:     *ckptEvery,
		readTimeout:   *readTimeout,
		shutdownGrace: *shutdownGrace,
		maxInFlight:   *maxInFlight,
		admissionWait: *admissionWait,
		brkThreshold:  *brkThreshold,
		brkCooldown:   *brkCooldown,
		cacheBlocks:   *cacheBlocks,
		cacheResults:  *cacheResults,
		eventsCap:     *eventsCap,
		sloLatencyMS:  *sloLatencyMS,
		sloAvail:      *sloAvail,
		logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	serveErr := make(chan error, 1)
	go func() { serveErr <- a.serve() }()
	if *shards > 1 {
		log.Printf("waved: serving %s wave index (W=%d, n=%d, shards=%d) on %s", *schemeName, *window, *indexes, *shards, a.addr())
	} else {
		log.Printf("waved: serving %s wave index (W=%d, n=%d) on %s", *schemeName, *window, *indexes, a.addr())
	}
	select {
	case <-sig:
		fmt.Fprintln(os.Stderr, "shutting down")
		a.shutdown(*shutdownGrace)
		<-serveErr
	case err := <-serveErr:
		a.shutdown(*shutdownGrace)
		if err != nil {
			log.Fatal(err)
		}
	}
}
