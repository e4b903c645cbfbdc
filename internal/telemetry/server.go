package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"

	"waveindex/internal/metrics"
	"waveindex/internal/obs"
	"waveindex/internal/simdisk"
	"waveindex/wave"
)

// Health is the one liveness document: /healthz and the line
// protocol's INFO health serve it.
type Health struct {
	// Status is "ok", "degraded" (a degradation signal or an open
	// breaker), or "needs-recovery".
	Status        string `json:"status"`
	Ready         bool   `json:"ready"`
	Degraded      bool   `json:"degraded"`
	NeedsRecovery bool   `json:"needsRecovery"`
	Journaled     bool   `json:"journaled"`
	// OpenBreakers is how many shard circuit breakers are currently not
	// closed; always 0 on unsharded or breaker-less deployments.
	OpenBreakers int `json:"openBreakers"`
	// ReplayedShards is how many shards the most recent RECOVER
	// replayed batches into (0 before any RECOVER).
	ReplayedShards int `json:"replayedShards"`
}

// Options wires an admin handler to a running index. Every hook is
// optional: a nil hook's endpoint serves an empty (metrics, work) or
// minimal (health) response, and a nil Spans disables /debug/spans.
type Options struct {
	// Metrics supplies the registry snapshot rendered at /metrics.
	Metrics func() metrics.Snapshot
	// ShardMetrics, when set, supplies per-shard snapshots additionally
	// rendered at /metrics as shard_-prefixed {shard="i"}-labelled
	// series (see WriteShardMetrics). Leave nil for unsharded indexes.
	ShardMetrics func() []metrics.Snapshot
	// Work supplies the work ledger rendered as labelled series at
	// /metrics alongside the registry.
	Work func() []simdisk.CauseStats
	// Breakers, when set, supplies per-shard circuit-breaker states
	// rendered at /metrics (see WriteBreakers). Leave nil for routers
	// without breakers.
	Breakers func() []BreakerStatus
	// Health supplies the state served at /healthz.
	Health func() Health
	// Spans, when set, is served as Chrome trace JSON at /debug/spans.
	Spans *SpanSink
	// Events, when set, is the timeline bus served at /events and
	// interleaved into /debug/spans as instant markers.
	Events *obs.Bus
	// SLO, when set, supplies the report served at /slo and rendered as
	// slo_* series at /metrics.
	SLO func() obs.Report
	// Cache, when set, supplies the caching-tier snapshot served as
	// JSON at /cache (the cache_* gauges already ride /metrics through
	// the Metrics hook).
	Cache func() wave.CacheInfo
}

// EventsPage is the events document: the retained events after the
// requested cursor, the newest sequence number (pass it back as since=
// to resume), and how many requested events were already evicted from
// the ring.
type EventsPage struct {
	Events  []obs.Event `json:"events"`
	Last    uint64      `json:"last"`
	Dropped uint64      `json:"dropped"`
}

// Shards is the per-shard document: each shard's metrics snapshot in
// shard order (an unsharded index reports its one snapshot as shard 0)
// and, when the backend runs circuit breakers, their positions.
type Shards struct {
	Shards   []metrics.Snapshot `json:"shards"`
	Breakers []BreakerStatus    `json:"breakers,omitempty"`
}

// Document builds the named observability document — health, metrics,
// shards, cache, events, slo, or work — from the hooks. It is the one
// builder behind both the admin endpoints and the line protocol's INFO
// command. args carries the section's parameters (events: since=<seq>
// and max=<n>); other keys are ignored. A section whose hook is not
// wired is an error, except health, which falls back to a zero Health.
func (o Options) Document(section string, args url.Values) (any, error) {
	switch section {
	case "health":
		if o.Health == nil {
			return Health{}, nil
		}
		return o.Health(), nil
	case "metrics":
		if o.Metrics != nil {
			return o.Metrics(), nil
		}
	case "shards":
		var doc Shards
		switch {
		case o.ShardMetrics != nil:
			doc.Shards = o.ShardMetrics()
		case o.Metrics != nil:
			doc.Shards = []metrics.Snapshot{o.Metrics()}
		}
		if o.Breakers != nil {
			doc.Breakers = o.Breakers()
		}
		return doc, nil
	case "cache":
		if o.Cache != nil {
			return o.Cache(), nil
		}
	case "events":
		if o.Events != nil {
			return o.events(args)
		}
	case "slo":
		if o.SLO != nil {
			return o.SLO(), nil
		}
	case "work":
		if o.Work != nil {
			return o.Work(), nil
		}
	default:
		return nil, fmt.Errorf("unknown section %q", section)
	}
	return nil, fmt.Errorf("section %q is not wired on this server", section)
}

// EncodeDocument is the one encoding of every observability document:
// two-space-indented JSON plus a trailing newline. JSON escapes control
// characters inside strings, so every line of the result is one line
// of the INFO reply.
func EncodeDocument(doc any) ([]byte, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// eventsCursor parses the events section's since= cursor and max= page
// cap (0 = uncapped).
func eventsCursor(args url.Values) (since uint64, max int, err error) {
	if v := args.Get("since"); v != "" {
		if since, err = strconv.ParseUint(v, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad since cursor %q", v)
		}
	}
	if v := args.Get("max"); v != "" {
		if max, err = strconv.Atoi(v); err != nil || max < 0 {
			return 0, 0, fmt.Errorf("bad max %q", v)
		}
	}
	return since, max, nil
}

// events pages the timeline after the since= cursor. Last resumes
// correctly after a max=-truncated page.
func (o Options) events(args url.Values) (EventsPage, error) {
	since, max, err := eventsCursor(args)
	if err != nil {
		return EventsPage{}, err
	}
	var page EventsPage
	page.Events, page.Dropped = o.Events.Since(since)
	if max > 0 && len(page.Events) > max {
		page.Events = page.Events[:max]
	}
	// Clamp a cursor from before a restart (the bus renumbers from 1):
	// echoing it back would wedge the poller forever.
	page.Last = min(since+page.Dropped, o.Events.LastSeq())
	if n := len(page.Events); n > 0 {
		page.Last = page.Events[n-1].Seq
	}
	if page.Events == nil {
		page.Events = []obs.Event{}
	}
	return page, nil
}

// serveDocument answers an admin GET with the named document; /healthz
// answers 503 while recovery is needed.
func serveDocument(w http.ResponseWriter, opts Options, section string, args url.Values) {
	doc, err := opts.Document(section, args)
	var body []byte
	if err == nil {
		body, err = EncodeDocument(doc)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if h, ok := doc.(Health); ok && h.NeedsRecovery {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write(body)
}

// maxEventWait caps /events long-polls so proxies and clients with no
// timeout of their own still cycle.
const maxEventWait = 25 * time.Second

// NewHandler returns the admin HTTP handler: /metrics (Prometheus text
// format), the JSON documents /healthz (503 while recovery is needed),
// /slo, /cache and /events when their hooks are wired, /debug/pprof/*
// (the standard profiles), and /debug/spans (Chrome trace JSON of the
// retained spans) when a span sink is wired.
func NewHandler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		if opts.Metrics != nil {
			if err := WriteMetrics(w, opts.Metrics()); err != nil {
				return
			}
		}
		if opts.ShardMetrics != nil {
			if err := WriteShardMetrics(w, opts.ShardMetrics()); err != nil {
				return
			}
		}
		if opts.Breakers != nil {
			if err := WriteBreakers(w, opts.Breakers()); err != nil {
				return
			}
		}
		if opts.SLO != nil {
			if err := WriteSLO(w, opts.SLO()); err != nil {
				return
			}
		}
		if opts.Work != nil {
			_ = WriteWork(w, opts.Work())
		}
	})
	document := func(section string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			serveDocument(w, opts, section, r.URL.Query())
		}
	}
	mux.HandleFunc("/healthz", document("health"))
	if opts.SLO != nil {
		mux.HandleFunc("/slo", document("slo"))
	}
	if opts.Cache != nil {
		mux.HandleFunc("/cache", document("cache"))
	}
	if opts.Events != nil {
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if waitStr := q.Get("wait"); waitStr != "" {
				// Long-poll: block until an event lands past the cursor
				// or the wait expires; an expired wait returns an empty
				// page with the cursor to resume from.
				wait, err := time.ParseDuration(waitStr)
				since, _, cerr := eventsCursor(q)
				if err != nil || wait <= 0 || cerr != nil {
					http.Error(w, "bad wait duration or cursor", http.StatusBadRequest)
					return
				}
				ctx, cancel := context.WithTimeout(r.Context(), min(wait, maxEventWait))
				_, _, _ = opts.Events.Wait(ctx, since)
				cancel()
			}
			serveDocument(w, opts, "events", q)
		})
	}
	if opts.Spans != nil {
		mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			var instants []obs.Event
			if opts.Events != nil {
				instants, _ = opts.Events.Since(0)
			}
			_ = opts.Spans.WriteChromeWith(w, "waved", instants)
		})
	}
	// net/http/pprof only self-registers on the default mux; wire its
	// handlers onto this private one.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running admin HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an admin server on addr (e.g. "127.0.0.1:9090"; a :0
// port picks a free one, see Addr). The server runs until Close.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           NewHandler(opts),
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes its listener.
func (s *Server) Close() error { return s.srv.Close() }
