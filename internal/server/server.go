// Package server exposes a wave index over a line-oriented TCP protocol —
// the deployment shape of the paper's motivating applications (a Web
// service indexing the past month of Netnews). One goroutine per
// connection; queries run concurrently while daily batch ingestion is
// serialised, exactly the concurrency model the shadow update techniques
// are designed for.
//
// Protocol (one request per line, space-separated):
//
//	ADDDAY <day> <n> [id=<rid>] declare a day batch of n postings, then
//	  <key> <recordID> <aux>    n posting lines; id= marks the batch for
//	                            idempotent retry — a replayed id answers
//	                            from the dedupe cache without re-applying
//	FLUSH                       drain pipelined ingestion (see
//	                            Options.AsyncIngest); reports the first
//	                            failed transition, if any
//	PROBE <key>                 window probe
//	PROBERANGE <key> <from> <to>
//	MPROBE <from> <to> <key>... batched multi-key probe over [from, to]
//	COUNT [<from> <to>]         count window entries (optionally ranged)
//	TOPK <k>                    k most frequent keys in the window
//	WINDOW                      current window bounds
//	INFO <section> [k=v ...]    one observability document (see below)
//	SLOWLOG <ms>                set the slow-query threshold (0 disables)
//	TRACE <id>                  stamp this connection's queries with id
//	TRACE [-]                   clear the connection's trace ID
//	PARTIAL on|off              opt this connection's queries into
//	                            partial results: slices of the keyspace
//	                            behind an open shard breaker are skipped
//	                            and announced as DEGRADED lines instead
//	                            of failing the query
//	RECOVER                     run the journal recovery protocol
//	QUIT                        close the connection
//
// Responses: "OK ..." or "ERR <message>"; probes stream
// "ENTRY <day> <recordID> <aux>" lines terminated by "END <count>";
// TOPK streams "KEY <key> <count>" lines terminated by "END <k>".
// MPROBE streams, per distinct key in ascending order, one
// "KEY <key> <count>" line followed by that key's ENTRY lines, all
// terminated by "END <nkeys>".
//
// INFO answers with a JSON document, two-space indented, one JSON line
// per wire line, terminated by "END <nlines>". The sections are health
// (readiness, degradation, recovery state), stats (wave.Stats), metrics
// (the fleet metrics snapshot; clients compute quantiles from its
// buckets), shards (per-shard snapshots plus breaker positions), cache
// (wave.CacheInfo), events (the event timeline after since=<seq>, at
// most max=<n> events; pass the reply's last back as since= to
// resume), slo (per-command SLO windows and burn rates), slowlog
// (wave.SlowQuery rows, most recent first) and work (the per-cause
// disk work ledger). Health, slo, cache and events are byte for byte
// the bodies of the admin server's /healthz, /slo, /cache and /events:
// both are built and encoded by internal/telemetry.
//
// Under PARTIAL on, query replies are preceded by zero or more
// "DEGRADED <shard> <shards> <cause>" lines naming the keyspace slices
// the answer excludes. Under admission control (Options.MaxInFlight), a
// shed query answers "ERR BUSY retry-after=<ms>" without touching the
// backend — always safe to retry after the hinted backoff. Queries
// refused because a shard breaker is open (and the connection did not
// opt into partial results) answer "ERR UNAVAILABLE <message>", the
// other retryable error class.
//
// A trace ID set by TRACE rides the connection: every subsequent probe,
// multi-probe, and scan carries it in its query context, so the ID shows
// up in the engine's spans (exported Chrome traces included) and in
// slow-query-log entries — wire-level request correlation.
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waveindex/internal/metrics"
	"waveindex/internal/obs"
	"waveindex/internal/telemetry"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// Options tunes connection handling. The zero value keeps the historical
// behaviour (no deadlines) apart from the defaulted line and batch caps.
type Options struct {
	// ReadTimeout bounds the wait for each protocol line — the next
	// command, or each posting line of an ADDDAY batch. A stalled or
	// half-written command times out and the connection is closed instead
	// of wedging its goroutine forever. Zero means no deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush. Zero means no deadline.
	WriteTimeout time.Duration
	// MaxLineBytes caps a single protocol line; a longer line gets an ERR
	// and the connection is closed. Zero defaults to 1 MiB.
	MaxLineBytes int
	// MaxBatchPostings caps the posting count one ADDDAY may declare, so
	// a malicious header cannot demand an unbounded allocation. Zero
	// defaults to 1<<20.
	MaxBatchPostings int
	// AsyncIngest pipelines ingestion: ADDDAY queues the batch and
	// responds as soon as it is accepted, while a single maintenance
	// goroutine applies queued days in order and queries keep being
	// served. Transition failures then surface on FLUSH (or a later
	// ADDDAY) instead of the ADDDAY that queued the failing day.
	AsyncIngest bool
	// MaxInFlight caps concurrently-executing queries (admission
	// control). An arriving query waits up to AdmissionWait for a slot
	// and is then shed with "ERR BUSY retry-after=<ms>". Zero means
	// unlimited — the historical behaviour.
	MaxInFlight int
	// AdmissionWait is how long a query may queue for an admission slot
	// before being shed. Zero defaults to 10ms when MaxInFlight is set.
	AdmissionWait time.Duration
	// RetryAfter is the backoff hint carried by BUSY errors. Zero
	// defaults to 50ms.
	RetryAfter time.Duration
	// Events, when set, is the fleet event bus: the server publishes
	// admission sheds, unavailable replies, and degraded slices onto
	// it, and serves the timeline as INFO events. Nil disables both
	// (INFO events answers ERR).
	Events *obs.Bus
	// SLO, when set, receives one Record per query and ingest command
	// and is served as INFO slo. Nil disables both.
	SLO *obs.Engine
}

func (o Options) withDefaults() Options {
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 1 << 20
	}
	if o.MaxBatchPostings <= 0 {
		o.MaxBatchPostings = 1 << 20
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 50 * time.Millisecond
	}
	return o
}

// Backend is what the server needs from the thing it serves: the full
// wave.Querier read surface plus ingestion, health, and observability.
// It is satisfied by *wave.Index, *wave.Journaled, and *shard.Router,
// so one server binary fronts a plain index, a crash-safe index, or a
// sharded fleet without caring which.
type Backend interface {
	wave.Querier
	AddDay(day int, postings []wave.Posting) error
	AddDayAsync(day int, postings []wave.Posting) error
	Flush() error
	NeedsRecovery() bool
	Degraded() bool
	Metrics() wave.MetricsSnapshot
	SlowQueries() []wave.SlowQuery
	SetSlowQueryThreshold(d time.Duration)
	Work() []wave.CauseStats
	// Close releases the backend. The server never calls it; it is here
	// so embedders can manage the backend's lifecycle through the same
	// handle they serve.
	Close() error
}

// Recoverer is the optional recovery surface of a Backend. Journaled
// indexes and journaled shard routers implement it; RECOVER is refused
// when the backend does not. A backend that additionally reports
// Journaled() false (a shard.Router built without journals carries the
// method but no journal) is likewise refused.
type Recoverer interface {
	Recover() (*wave.RecoveryReport, error)
}

// Server serves a wave backend over a listener.
type Server struct {
	b    Backend
	opts Options

	lim    *limiter          // admission control; nil = unlimited
	dedupe *dedupeCache      // applied ADDDAY request IDs → cached replies
	reg    *metrics.Registry // wire-level counters, merged into INFO metrics
	admin  telemetry.Options // the INFO document hooks (see AdminOptions)

	mu           sync.Mutex   // serialises AddDay and Recover; queries need no lock
	lastReplayed atomic.Int64 // shard count of the most recent RECOVER
	closed       chan struct{}
	wg           sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// New returns a server for the index. The server takes over maintenance:
// callers must not invoke idx.AddDay concurrently with Serve.
func New(idx *wave.Index) *Server {
	return NewWithOptions(idx, Options{})
}

// NewWithOptions is New with explicit connection-handling options.
func NewWithOptions(idx *wave.Index, opts Options) *Server {
	return NewBackend(idx, opts)
}

// NewJournaled serves a journaled index: ADDDAY runs through the
// transition journal, INFO health reports recovery state, and RECOVER runs
// the recovery protocol. Queries always go to the journal's current
// index, which recovery may replace.
func NewJournaled(j *wave.Journaled, opts Options) *Server {
	return NewBackend(j, opts)
}

// NewBackend serves any Backend — plain, journaled, or sharded.
func NewBackend(b Backend, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		b:      b,
		opts:   opts,
		lim:    newLimiter(opts.MaxInFlight, opts.AdmissionWait),
		dedupe: newDedupeCache(1024),
		reg:    metrics.New(),
		closed: make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	s.admin = telemetry.Options{
		// The backend's metrics merged with the server's own wire-level
		// registry (connections, admitted/shed queries, dedupe hits).
		Metrics: func() metrics.Snapshot { return metrics.Merge(b.Metrics(), s.reg.Snapshot()) },
		Work:    b.Work,
		Health:  s.health,
		Events:  opts.Events,
	}
	if opts.SLO != nil {
		s.admin.SLO = opts.SLO.Report
	}
	// Optional capabilities: all three backend shapes carry CacheInfo;
	// only a shard.Router carries the per-shard views.
	if cb, ok := b.(interface{ CacheInfo() wave.CacheInfo }); ok {
		s.admin.Cache = cb.CacheInfo
	}
	if sm, ok := b.(interface{ ShardMetrics() []wave.MetricsSnapshot }); ok {
		s.admin.ShardMetrics = sm.ShardMetrics
	}
	if bs, ok := b.(interface{ BreakerStates() []shard.BreakerInfo }); ok {
		s.admin.Breakers = func() []telemetry.BreakerStatus {
			var out []telemetry.BreakerStatus
			for _, bi := range bs.BreakerStates() {
				out = append(out, telemetry.BreakerStatus{Shard: bi.Shard, State: bi.State.String(), Failures: bi.Failures})
			}
			return out
		}
	}
	return s
}

// AdminOptions returns the admin-plane hooks bound to this server —
// the same ones INFO answers from, so an admin endpoint serves the
// same bytes as its INFO section. Add a span sink before serving.
func (s *Server) AdminOptions() telemetry.Options { return s.admin }

// journaled reports whether the backend supports RECOVER.
func (s *Server) journaled() bool {
	if _, ok := s.b.(Recoverer); !ok {
		return false
	}
	if j, ok := s.b.(interface{ Journaled() bool }); ok {
		return j.Journaled()
	}
	return true
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	defer s.wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close marks the server closing (the caller closes the listener).
func (s *Server) Close() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
}

// Shutdown closes the server gracefully: no new commands are accepted,
// in-flight commands finish and their responses are written, and any
// connection still open after the grace period is force-closed. The
// caller closes the listener, as with Close.
func (s *Server) Shutdown(grace time.Duration) {
	s.Close()
	// Wake handlers blocked reading the next command; their current
	// command (if any) still completes before the loop re-checks closed.
	s.connMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
	}
}

func (s *Server) track(c net.Conn) {
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
}

func (s *Server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// scanLine reads one protocol line under the configured read deadline.
func (s *Server) scanLine(conn net.Conn, in *bufio.Scanner) bool {
	if s.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
	return in.Scan()
}

// flush writes the buffered response under the configured write deadline.
func (s *Server) flush(conn net.Conn, out *bufio.Writer) error {
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	return out.Flush()
}

func (s *Server) handle(conn net.Conn) {
	s.track(conn)
	defer s.untrack(conn)
	defer conn.Close()
	s.reg.Counter("server_conns_total").Inc()
	s.reg.Gauge("server_conns_open").Add(1)
	defer s.reg.Gauge("server_conns_open").Add(-1)
	// Per-connection rate accounting: how many commands this connection
	// issued, observed into a fleet histogram at hangup.
	connCmds := int64(0)
	defer func() { s.reg.Histogram("server_conn_cmds").Observe(connCmds) }()
	in := bufio.NewScanner(conn)
	// Scanner takes the larger of the initial capacity and the max, so
	// the initial buffer must not exceed the configured line cap.
	in.Buffer(make([]byte, 0, min(1<<16, s.opts.MaxLineBytes)), s.opts.MaxLineBytes)
	out := bufio.NewWriter(conn)
	defer out.Flush()
	// traceID and partial are connection state: TRACE <id> stamps every
	// later query's context, PARTIAL on opts queries into partial
	// results (degraded slices stream as DEGRADED lines).
	traceID := ""
	partial := false
	qctx := func() context.Context {
		ctx := wave.WithTraceID(context.Background(), traceID)
		if partial {
			ctx, _ = wave.WithPartialResults(ctx)
		}
		return ctx
	}
	// query wraps the read commands with admission control: a shed query
	// never reaches the backend and reports BUSY with the retry hint.
	// Every outcome — shed included, since a shed spends error budget —
	// is recorded into the SLO engine under the command's wire name.
	query := func(name string, f func() error) error {
		start := time.Now()
		if !s.lim.acquire() {
			s.reg.Counter("server_busy_total").Inc()
			err := &BusyError{RetryAfter: s.opts.RetryAfter}
			s.opts.SLO.Record(name, time.Since(start), err)
			s.opts.Events.Publish(obs.Event{
				Type: obs.EventShed, Shard: -1, Cmd: name, TraceID: traceID,
				Value: int64(s.opts.MaxInFlight),
			})
			return err
		}
		defer s.lim.release()
		s.reg.Counter("server_queries_total").Inc()
		s.reg.Gauge("server_inflight_queries").Add(1)
		defer s.reg.Gauge("server_inflight_queries").Add(-1)
		err := f()
		s.opts.SLO.Record(name, time.Since(start), err)
		return err
	}
	for {
		select {
		case <-s.closed:
			fmt.Fprintln(out, "ERR server shutting down")
			s.flush(conn, out)
			return
		default:
		}
		if !s.scanLine(conn, in) {
			if err := in.Err(); errors.Is(err, bufio.ErrTooLong) {
				fmt.Fprintf(out, "ERR line exceeds %d bytes\n", s.opts.MaxLineBytes)
				s.flush(conn, out)
			}
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd := strings.ToUpper(fields[0])
		connCmds++
		s.reg.Counter("server_cmds_total").Inc()
		var err error
		switch cmd {
		case "QUIT":
			fmt.Fprintln(out, "OK bye")
			s.flush(conn, out)
			return
		case "ADDDAY":
			err = s.addDay(conn, in, out, fields[1:])
		case "FLUSH":
			err = s.flushIngest(out)
		case "PROBE":
			err = query("probe", func() error { return s.probe(qctx(), out, fields[1:], false) })
		case "PROBERANGE":
			err = query("proberange", func() error { return s.probe(qctx(), out, fields[1:], true) })
		case "MPROBE":
			err = query("mprobe", func() error { return s.mprobe(qctx(), out, fields[1:]) })
		case "COUNT":
			err = query("count", func() error { return s.count(qctx(), out, fields[1:]) })
		case "TOPK":
			err = query("topk", func() error { return s.topk(qctx(), out, fields[1:]) })
		case "PARTIAL":
			switch {
			case len(fields) == 2 && strings.EqualFold(fields[1], "on"):
				partial = true
				fmt.Fprintln(out, "OK partial on")
			case len(fields) == 2 && strings.EqualFold(fields[1], "off"):
				partial = false
				fmt.Fprintln(out, "OK partial off")
			default:
				err = errors.New("usage: PARTIAL on|off")
			}
		case "TRACE":
			switch {
			case len(fields) == 1 || (len(fields) == 2 && fields[1] == "-"):
				traceID = ""
				fmt.Fprintln(out, "OK trace cleared")
			case len(fields) == 2:
				traceID = fields[1]
				fmt.Fprintf(out, "OK trace %s\n", traceID)
			default:
				err = errors.New("usage: TRACE [<id>|-]")
			}
		case "WINDOW":
			from, to := s.b.Window()
			fmt.Fprintf(out, "OK %d %d ready=%v\n", from, to, s.b.Ready())
		case "INFO":
			err = s.info(out, fields[1:])
		case "SLOWLOG":
			err = s.setSlowThreshold(out, fields[1:])
		case "RECOVER":
			err = s.recover(out)
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			msg := strings.ReplaceAll(err.Error(), "\n", " ")
			// wave.ErrUnavailable gets a stable wire prefix so clients can
			// type it (retryable) without matching on message text.
			if errors.Is(err, wave.ErrUnavailable) {
				s.reg.Counter("server_unavailable_total").Inc()
				s.opts.Events.Publish(obs.Event{
					Type: obs.EventUnavailable, Shard: -1,
					Cmd: strings.ToLower(cmd), TraceID: traceID, Cause: msg,
				})
				fmt.Fprintf(out, "ERR UNAVAILABLE %s\n", msg)
			} else {
				fmt.Fprintf(out, "ERR %s\n", msg)
			}
		}
		if err := s.flush(conn, out); err != nil {
			return
		}
	}
}

// emitDegraded streams the query's degraded-keyspace annotation, one
// "DEGRADED <shard> <shards> <cause>" line per skipped slice, ahead of
// the command's normal reply, and mirrors each slice onto the event
// bus. Only connections that issued PARTIAL on carry a report, so
// legacy clients never see these lines.
func (s *Server) emitDegraded(ctx context.Context, out *bufio.Writer, cmd string) {
	rep := wave.PartialFromContext(ctx)
	if rep == nil {
		return
	}
	for _, sl := range rep.Degraded() {
		s.opts.Events.Publish(obs.Event{
			Type: obs.EventDegraded, Shard: sl.Shard, Cmd: cmd,
			Cause: sl.Cause, TraceID: wave.TraceIDFrom(ctx),
		})
		cause := strings.ReplaceAll(sl.Cause, " ", "-")
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(out, "DEGRADED %d %d %s\n", sl.Shard, sl.Shards, cause)
	}
}

func (s *Server) addDay(conn net.Conn, in *bufio.Scanner, out *bufio.Writer, args []string) error {
	// An optional trailing id=<rid> marks the batch for idempotent
	// retry: if a batch with the same ID already applied, the posting
	// lines are still consumed (framing) but the cached reply is
	// returned instead of re-executing.
	rid := ""
	if len(args) == 3 && strings.HasPrefix(args[2], "id=") && len(args[2]) > 3 {
		rid, args = args[2][3:], args[:2]
	}
	if len(args) != 2 {
		return errors.New("usage: ADDDAY <day> <n> [id=<rid>]")
	}
	day, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad day: %w", err)
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n < 0 {
		return fmt.Errorf("bad posting count %q", args[1])
	}
	if n > s.opts.MaxBatchPostings {
		return fmt.Errorf("batch of %d postings exceeds limit %d", n, s.opts.MaxBatchPostings)
	}
	postings := make([]wave.Posting, 0, n)
	for i := 0; i < n; i++ {
		if !s.scanLine(conn, in) {
			return errors.New("connection ended mid-batch")
		}
		f := strings.Fields(in.Text())
		if len(f) != 3 {
			return fmt.Errorf("posting line %d: want '<key> <recordID> <aux>'", i+1)
		}
		recID, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return fmt.Errorf("posting line %d: bad recordID: %w", i+1, err)
		}
		aux, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return fmt.Errorf("posting line %d: bad aux: %w", i+1, err)
		}
		postings = append(postings, wave.Posting{
			Key:   f[0],
			Entry: wave.Entry{RecordID: recID, Aux: uint32(aux), Day: int32(day)},
		})
	}
	// Claim the request ID before applying. A replayed ID blocks in
	// begin until the original attempt resolves — even one still
	// executing under s.mu — so a retry racing an in-flight apply reads
	// the cached reply instead of ingesting the batch a second time.
	if rid != "" {
		if reply, cached := s.dedupe.begin(rid); cached {
			s.reg.Counter("server_addday_dedup_total").Inc()
			fmt.Fprint(out, reply)
			return nil
		}
	}
	start := time.Now()
	s.mu.Lock()
	if s.opts.AsyncIngest {
		err = s.b.AddDayAsync(day, postings)
	} else {
		err = s.b.AddDay(day, postings)
	}
	s.mu.Unlock()
	s.opts.SLO.Record("addday", time.Since(start), err)
	if err != nil {
		// Only applied batches are remembered: a failed attempt must
		// stay retryable under the same ID.
		if rid != "" {
			s.dedupe.abandon(rid)
		}
		return err
	}
	var reply string
	if s.opts.AsyncIngest {
		reply = fmt.Sprintf("OK day %d queued (%d postings)\n", day, n)
	} else {
		reply = fmt.Sprintf("OK day %d ingested (%d postings)\n", day, n)
	}
	if rid != "" {
		s.dedupe.commit(rid, reply)
	}
	fmt.Fprint(out, reply)
	return nil
}

// flushIngest drains the async ingestion pipeline and reports the first
// transition failure, if any. On a synchronous server it is a no-op
// acknowledgement.
func (s *Server) flushIngest(out *bufio.Writer) error {
	if err := s.b.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "OK flushed\n")
	return nil
}

// health builds the health document: overall status, readiness, the
// two degradation signals queries should care about, how many shard
// circuit breakers are open, and how many shards the most recent
// RECOVER actually replayed. It takes no lock, so a health check never
// waits behind a running transition.
func (s *Server) health() telemetry.Health {
	h := telemetry.Health{
		Status:         "ok",
		Ready:          s.b.Ready(),
		Degraded:       s.b.Degraded(),
		NeedsRecovery:  s.b.NeedsRecovery(),
		Journaled:      s.journaled(),
		ReplayedShards: int(s.lastReplayed.Load()),
	}
	if ob, ok := s.b.(interface{ OpenBreakers() []int }); ok {
		h.OpenBreakers = len(ob.OpenBreakers())
	}
	if h.Degraded || h.OpenBreakers > 0 {
		h.Status = "degraded"
	}
	if h.NeedsRecovery {
		h.Status = "needs-recovery"
	}
	return h
}

func (s *Server) recover(out *bufio.Writer) error {
	rec, ok := s.b.(Recoverer)
	if !ok || !s.journaled() {
		return errors.New("RECOVER requires a journaled index (start waved with -journal)")
	}
	s.mu.Lock()
	rep, err := rec.Recover()
	if err == nil {
		s.lastReplayed.Store(int64(len(rep.ShardsReplayed)))
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	shards := "-"
	if len(rep.ShardsReplayed) > 0 {
		parts := make([]string, len(rep.ShardsReplayed))
		for i, sh := range rep.ShardsReplayed {
			parts[i] = strconv.Itoa(sh)
		}
		shards = strings.Join(parts, ",")
	}
	fmt.Fprintf(out, "OK recovered checkpointDay=%d replayed=%d uncommitted=%d torn=%v shardsReplayed=%s\n",
		rep.CheckpointDay, len(rep.ReplayedDays), len(rep.Uncommitted), rep.TornTail, shards)
	return nil
}

func (s *Server) probe(ctx context.Context, out *bufio.Writer, args []string, ranged bool) error {
	var es []wave.Entry
	var err error
	switch {
	case !ranged && len(args) == 1:
		es, err = s.b.Probe(ctx, args[0])
	case ranged && len(args) == 3:
		var from, to int
		if from, err = strconv.Atoi(args[1]); err != nil {
			return fmt.Errorf("bad from: %w", err)
		}
		if to, err = strconv.Atoi(args[2]); err != nil {
			return fmt.Errorf("bad to: %w", err)
		}
		es, err = s.b.ProbeRange(ctx, args[0], from, to)
	default:
		return errors.New("usage: PROBE <key> | PROBERANGE <key> <from> <to>")
	}
	if err != nil {
		return err
	}
	name := "probe"
	if ranged {
		name = "proberange"
	}
	s.emitDegraded(ctx, out, name)
	for _, e := range es {
		fmt.Fprintf(out, "ENTRY %d %d %d\n", e.Day, e.RecordID, e.Aux)
	}
	fmt.Fprintf(out, "END %d\n", len(es))
	return nil
}

func (s *Server) mprobe(ctx context.Context, out *bufio.Writer, args []string) error {
	if len(args) < 3 {
		return errors.New("usage: MPROBE <from> <to> <key>...")
	}
	from, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad from: %w", err)
	}
	to, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("bad to: %w", err)
	}
	res, err := s.b.MultiProbeRange(ctx, args[2:], from, to)
	if err != nil {
		return err
	}
	s.emitDegraded(ctx, out, "mprobe")
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		es := res[k]
		fmt.Fprintf(out, "KEY %s %d\n", k, len(es))
		for _, e := range es {
			fmt.Fprintf(out, "ENTRY %d %d %d\n", e.Day, e.RecordID, e.Aux)
		}
	}
	fmt.Fprintf(out, "END %d\n", len(keys))
	return nil
}

func (s *Server) count(ctx context.Context, out *bufio.Writer, args []string) error {
	var err error
	n := 0
	visit := func(string, wave.Entry) bool { n++; return true }
	switch len(args) {
	case 0:
		err = s.b.Scan(ctx, visit)
	case 2:
		var from, to int
		if from, err = strconv.Atoi(args[0]); err != nil {
			return fmt.Errorf("bad from: %w", err)
		}
		if to, err = strconv.Atoi(args[1]); err != nil {
			return fmt.Errorf("bad to: %w", err)
		}
		err = s.b.ScanRange(ctx, from, to, visit)
	default:
		return errors.New("usage: COUNT [<from> <to>]")
	}
	if err != nil {
		return err
	}
	s.emitDegraded(ctx, out, "count")
	fmt.Fprintf(out, "OK %d\n", n)
	return nil
}

// info writes one INFO section: the document's JSON lines, then
// "END <nlines>". stats and slowlog come straight from the backend;
// every other section is built by the admin plane's Document.
func (s *Server) info(out *bufio.Writer, args []string) error {
	if len(args) == 0 {
		return errors.New("usage: INFO <section> [k=v ...]")
	}
	params := url.Values{}
	for _, a := range args[1:] {
		k, v, ok := strings.Cut(a, "=")
		if !ok || k == "" {
			return fmt.Errorf("bad argument %q (want k=v)", a)
		}
		params.Set(k, v)
	}
	var doc any
	var err error
	switch section := strings.ToLower(args[0]); section {
	case "stats":
		doc = s.b.Stats()
	case "slowlog":
		doc = s.b.SlowQueries()
	default:
		doc, err = s.admin.Document(section, params)
	}
	var body []byte
	if err == nil {
		body, err = telemetry.EncodeDocument(doc)
	}
	if err != nil {
		return err
	}
	out.Write(body)
	fmt.Fprintf(out, "END %d\n", bytes.Count(body, []byte("\n")))
	return nil
}

// setSlowThreshold handles SLOWLOG <ms>; the log itself is INFO slowlog.
func (s *Server) setSlowThreshold(out *bufio.Writer, args []string) error {
	if len(args) == 0 {
		return errors.New(`unknown command "SLOWLOG" (read the log with INFO slowlog)`)
	}
	if len(args) != 1 {
		return errors.New("usage: SLOWLOG <thresholdms>")
	}
	ms, err := strconv.Atoi(args[0])
	if err != nil || ms < 0 {
		return fmt.Errorf("bad threshold %q (milliseconds)", args[0])
	}
	s.b.SetSlowQueryThreshold(time.Duration(ms) * time.Millisecond)
	fmt.Fprintf(out, "OK threshold %dms\n", ms)
	return nil
}

func (s *Server) topk(ctx context.Context, out *bufio.Writer, args []string) error {
	if len(args) != 1 {
		return errors.New("usage: TOPK <k>")
	}
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 1 {
		return fmt.Errorf("bad k %q", args[0])
	}
	from, to := s.b.Window()
	top, err := s.b.TopKeys(ctx, k, from, to)
	if err != nil {
		return err
	}
	s.emitDegraded(ctx, out, "topk")
	for _, e := range top {
		fmt.Fprintf(out, "KEY %s %d\n", e.Key, e.Count)
	}
	fmt.Fprintf(out, "END %d\n", len(top))
	return nil
}
