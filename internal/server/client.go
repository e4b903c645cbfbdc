package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"waveindex/wave"
)

// TransportError wraps a connection-level failure: a dial, write, read,
// or deadline error, or a desynchronised reply stream. The client
// closes the connection when it returns one; with retries configured it
// redials, replays connection state (trace ID, partial mode), and
// resends the request. Queries are read-only and ADDDAY carries a
// request ID the server deduplicates, so the resend is safe.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return "server: transport: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// IsRetryable reports whether err is safe to retry after backoff: the
// server shed the request (BUSY), part of the keyspace is temporarily
// unavailable (UNAVAILABLE), or the transport failed — retried requests
// never double-apply (ADDDAY is deduplicated server-side; everything
// else is read-only or idempotent).
func IsRetryable(err error) bool {
	var busy *BusyError
	var tr *TransportError
	return errors.As(err, &busy) || errors.As(err, &tr) || errors.Is(err, wave.ErrUnavailable)
}

// ClientOptions tunes the client's resilience. The zero value keeps the
// historical behaviour: no per-op timeout and no retries.
type ClientOptions struct {
	// OpTimeout bounds one attempt's full round trip (write, server
	// execution, reply read). Zero means no deadline.
	OpTimeout time.Duration
	// MaxRetries is how many times a failed retryable request is
	// re-attempted (so MaxRetries+1 attempts in total). Zero disables
	// retries.
	MaxRetries int
	// Backoff is the first retry's base delay; each further retry
	// doubles it, capped at MaxBackoff, and the actual sleep is
	// jittered to half-to-full of the base. A BUSY error's retry-after
	// hint acts as a floor. Zero defaults to 5ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff. Zero defaults to 500ms.
	MaxBackoff time.Duration
	// Seed seeds the jitter and the request-ID prefix, so failure tests
	// replay deterministically. Zero picks a time-based seed.
	Seed int64
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Backoff <= 0 {
		o.Backoff = 5 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 500 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// Client is a typed client for the waved line protocol. It is not safe
// for concurrent use; open one client per goroutine.
type Client struct {
	addr string // "" when wrapping an established conn: no redial
	opts ClientOptions

	conn net.Conn
	r    *bufio.Scanner
	w    *bufio.Writer

	// Connection state replayed after a reconnect.
	traceID string
	partial bool

	rng    *rand.Rand
	ridPfx string // request-ID prefix; unique per client
	ridSeq uint64

	degraded []wave.DegradedSlice // DEGRADED annotation of the last reply
}

// Dial connects to a waved server with no retries or timeouts — the
// historical behaviour. Use DialOptions for a resilient client.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions connects to a waved server with the given resilience
// options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	c := newClient(addr, opts)
	if err := c.ensureConn(); err != nil {
		return nil, errors.Unwrap(err)
	}
	return c, nil
}

// NewClient wraps an established connection. Without an address the
// client cannot redial, so transport failures are not retried; BUSY and
// UNAVAILABLE retries still work.
func NewClient(conn net.Conn) *Client {
	c := newClient("", ClientOptions{})
	c.attach(conn)
	return c
}

// NewClientOptions wraps an established connection with resilience
// options (no redial; see NewClient).
func NewClientOptions(conn net.Conn, opts ClientOptions) *Client {
	c := newClient("", opts)
	c.attach(conn)
	return c
}

func newClient(addr string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	return &Client{
		addr:   addr,
		opts:   opts,
		rng:    rng,
		ridPfx: fmt.Sprintf("%08x", rng.Uint32()),
	}
}

func (c *Client) attach(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	c.conn, c.r, c.w = conn, sc, bufio.NewWriter(conn)
}

// ensureConn dials (or redials) and replays connection state. The
// returned error is a TransportError so do() treats a failed redial
// like any other transport fault.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	if c.addr == "" {
		return &TransportError{Err: errors.New("connection closed (no address to redial)")}
	}
	// OpTimeout bounds the dial and the state replay below, not just
	// do()'s request round trip — otherwise a blackholed server could
	// hang the client indefinitely during reconnect.
	var conn net.Conn
	var err error
	if c.opts.OpTimeout > 0 {
		conn, err = net.DialTimeout("tcp", c.addr, c.opts.OpTimeout)
	} else {
		conn, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return &TransportError{Err: err}
	}
	c.attach(conn)
	if c.opts.OpTimeout > 0 {
		conn.SetDeadline(time.Now().Add(c.opts.OpTimeout))
	}
	// Replay connection-scoped state the server keeps per conn. These
	// raw exchanges bypass do(): a failure just drops the fresh conn.
	if c.traceID != "" {
		if err := c.raw(fmt.Sprintf("TRACE %s", c.traceID)); err != nil {
			c.dropConn()
			return &TransportError{Err: fmt.Errorf("replay trace: %w", err)}
		}
	}
	if c.partial {
		if err := c.raw("PARTIAL on"); err != nil {
			c.dropConn()
			return &TransportError{Err: fmt.Errorf("replay partial: %w", err)}
		}
	}
	return nil
}

// raw sends one command on the current conn and expects an OK, without
// retries or state tracking.
func (c *Client) raw(cmd string) error {
	fmt.Fprintln(c.w, cmd)
	if err := c.w.Flush(); err != nil {
		return err
	}
	_, err := c.expectOK()
	return err
}

func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// nextRID returns a fresh request ID for a mutating command. The ID is
// fixed per logical request: every retry of the same AddDay carries the
// same ID, which is what lets the server deduplicate the replay.
func (c *Client) nextRID() string {
	c.ridSeq++
	return fmt.Sprintf("%s-%d", c.ridPfx, c.ridSeq)
}

// backoffDelay computes the jittered exponential backoff for a retry.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.opts.Backoff << attempt
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	half := int64(d / 2)
	return time.Duration(half + c.rng.Int63n(half+1))
}

// do runs one request with the configured resilience: per-attempt
// deadline, retry with backoff on retryable errors, redial + state
// replay after transport faults. req writes the request and parses the
// reply using c.w/c.r; it must return a *TransportError for anything
// that desynchronises the stream.
func (c *Client) do(req func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = c.ensureConn()
		if err == nil {
			c.degraded = nil
			if c.opts.OpTimeout > 0 {
				c.conn.SetDeadline(time.Now().Add(c.opts.OpTimeout))
			}
			err = req()
		}
		if err == nil {
			return nil
		}
		var tr *TransportError
		if errors.As(err, &tr) {
			// The stream is in an unknown state; only a fresh
			// connection is safe.
			c.dropConn()
		}
		if attempt >= c.opts.MaxRetries || !IsRetryable(err) {
			return err
		}
		delay := c.backoffDelay(attempt)
		var busy *BusyError
		if errors.As(err, &busy) && busy.RetryAfter > delay {
			delay = busy.RetryAfter
		}
		time.Sleep(delay)
	}
}

// Close closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	fmt.Fprintln(c.w, "QUIT")
	c.w.Flush()
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Degraded returns the degraded-keyspace annotation of the most recent
// reply — the slices the answer excludes. Empty unless the client is in
// partial mode (see Partial) and a shard breaker was open.
func (c *Client) Degraded() []wave.DegradedSlice {
	return append([]wave.DegradedSlice(nil), c.degraded...)
}

// Partial opts this client's queries in or out of partial results: when
// on, queries skip keyspace slices behind an open shard breaker instead
// of failing, and the skipped slices are available from Degraded after
// each query. The mode survives reconnects.
func (c *Client) Partial(on bool) error {
	arg := "off"
	if on {
		arg = "on"
	}
	err := c.do(func() error {
		fmt.Fprintf(c.w, "PARTIAL %s\n", arg)
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		_, err := c.expectOK()
		return err
	})
	if err == nil {
		c.partial = on
	}
	return err
}

// parseWireErr types a server "ERR ..." reply body: BUSY becomes a
// *BusyError, UNAVAILABLE wraps wave.ErrUnavailable — both retryable —
// and anything else is a plain error.
func parseWireErr(msg string) error {
	if rest, ok := strings.CutPrefix(msg, "BUSY retry-after="); ok {
		ms, err := strconv.Atoi(strings.Fields(rest)[0])
		if err == nil {
			return &BusyError{RetryAfter: time.Duration(ms) * time.Millisecond}
		}
	}
	if rest, ok := strings.CutPrefix(msg, "UNAVAILABLE "); ok {
		return fmt.Errorf("server: %s: %w", rest, wave.ErrUnavailable)
	}
	return errors.New(msg)
}

// readLine reads one reply line, siphoning off DEGRADED annotation
// lines into c.degraded. Read failures are transport errors.
func (c *Client) readLine() (string, error) {
	for {
		if !c.r.Scan() {
			err := c.r.Err()
			if err == nil {
				err = errors.New("connection closed")
			}
			return "", &TransportError{Err: err}
		}
		line := c.r.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "DEGRADED" {
			shard, err1 := strconv.Atoi(f[1])
			shards, err2 := strconv.Atoi(f[2])
			if err1 == nil && err2 == nil {
				c.degraded = append(c.degraded, wave.DegradedSlice{
					Shard: shard, Shards: shards, Cause: f[3],
				})
				continue
			}
		}
		return line, nil
	}
}

func (c *Client) expectOK() (string, error) {
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(line, "ERR ") {
		return "", parseWireErr(strings.TrimPrefix(line, "ERR "))
	}
	if !strings.HasPrefix(line, "OK") {
		return "", &TransportError{Err: fmt.Errorf("unexpected reply %q", line)}
	}
	return strings.TrimSpace(strings.TrimPrefix(line, "OK")), nil
}

// AddDay ingests one day batch. The request carries a unique ID, so
// with retries configured a batch resent after a torn connection is
// applied at most once (the server answers replays from its dedupe
// cache).
func (c *Client) AddDay(day int, postings []wave.Posting) error {
	rid := c.nextRID()
	return c.do(func() error {
		fmt.Fprintf(c.w, "ADDDAY %d %d id=%s\n", day, len(postings), rid)
		for _, p := range postings {
			fmt.Fprintf(c.w, "%s %d %d\n", p.Key, p.Entry.RecordID, p.Entry.Aux)
		}
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		_, err := c.expectOK()
		return err
	})
}

// Flush drains the server's pipelined ingestion (Options.AsyncIngest):
// it returns once every queued day has been applied, reporting the
// first failed transition. On a synchronous server it is a no-op.
func (c *Client) Flush() error {
	return c.do(func() error {
		fmt.Fprintln(c.w, "FLUSH")
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		_, err := c.expectOK()
		return err
	})
}

func (c *Client) probe(cmd string) ([]wave.Entry, error) {
	var out []wave.Entry
	err := c.do(func() error {
		out = nil
		fmt.Fprintln(c.w, cmd)
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		for {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			switch {
			case strings.HasPrefix(line, "ENTRY "):
				f := strings.Fields(line)
				if len(f) != 4 {
					return &TransportError{Err: fmt.Errorf("bad entry line %q", line)}
				}
				day, _ := strconv.Atoi(f[1])
				rid, _ := strconv.ParseUint(f[2], 10, 64)
				aux, _ := strconv.ParseUint(f[3], 10, 32)
				out = append(out, wave.Entry{Day: int32(day), RecordID: rid, Aux: uint32(aux)})
			case strings.HasPrefix(line, "END "):
				want, _ := strconv.Atoi(strings.TrimPrefix(line, "END "))
				if want != len(out) {
					return &TransportError{Err: fmt.Errorf("stream ended with %d entries, header said %d", len(out), want)}
				}
				return nil
			case strings.HasPrefix(line, "ERR "):
				return parseWireErr(strings.TrimPrefix(line, "ERR "))
			default:
				return &TransportError{Err: fmt.Errorf("unexpected line %q", line)}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Probe returns the window entries for key.
func (c *Client) Probe(key string) ([]wave.Entry, error) {
	return c.probe("PROBE " + key)
}

// ProbeRange returns entries for key between days from and to.
func (c *Client) ProbeRange(key string, from, to int) ([]wave.Entry, error) {
	return c.probe(fmt.Sprintf("PROBERANGE %s %d %d", key, from, to))
}

// MultiProbe returns the entries of each key with matches in [from, to],
// probed server-side as one batch.
func (c *Client) MultiProbe(keys []string, from, to int) (map[string][]wave.Entry, error) {
	var out map[string][]wave.Entry
	err := c.do(func() error {
		out = map[string][]wave.Entry{}
		fmt.Fprintf(c.w, "MPROBE %d %d %s\n", from, to, strings.Join(keys, " "))
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		var cur string
		seen := 0
		for {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			switch {
			case strings.HasPrefix(line, "KEY "):
				f := strings.Fields(line)
				if len(f) != 3 {
					return &TransportError{Err: fmt.Errorf("bad key line %q", line)}
				}
				cur = f[1]
				seen++
			case strings.HasPrefix(line, "ENTRY "):
				if cur == "" {
					return &TransportError{Err: fmt.Errorf("entry line before any key: %q", line)}
				}
				f := strings.Fields(line)
				if len(f) != 4 {
					return &TransportError{Err: fmt.Errorf("bad entry line %q", line)}
				}
				day, _ := strconv.Atoi(f[1])
				rid, _ := strconv.ParseUint(f[2], 10, 64)
				aux, _ := strconv.ParseUint(f[3], 10, 32)
				out[cur] = append(out[cur], wave.Entry{Day: int32(day), RecordID: rid, Aux: uint32(aux)})
			case strings.HasPrefix(line, "END "):
				want, _ := strconv.Atoi(strings.TrimPrefix(line, "END "))
				if want != seen {
					return &TransportError{Err: fmt.Errorf("stream ended with %d keys, header said %d", seen, want)}
				}
				return nil
			case strings.HasPrefix(line, "ERR "):
				return parseWireErr(strings.TrimPrefix(line, "ERR "))
			default:
				return &TransportError{Err: fmt.Errorf("unexpected line %q", line)}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Count counts window entries; from/to of (0, 0) count the whole window.
func (c *Client) Count(from, to int) (int, error) {
	cmd := "COUNT"
	if from != 0 || to != 0 {
		cmd = fmt.Sprintf("COUNT %d %d", from, to)
	}
	n := 0
	err := c.do(func() error {
		fmt.Fprintln(c.w, cmd)
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		body, err := c.expectOK()
		if err != nil {
			return err
		}
		n, err = strconv.Atoi(body)
		return err
	})
	return n, err
}

// KeyCount is one TOPK result row.
type KeyCount struct {
	Key   string
	Count int
}

// TopK returns the k most frequent keys in the window.
func (c *Client) TopK(k int) ([]KeyCount, error) {
	var out []KeyCount
	err := c.do(func() error {
		out = nil
		fmt.Fprintf(c.w, "TOPK %d\n", k)
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		for {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			switch {
			case strings.HasPrefix(line, "KEY "):
				f := strings.Fields(line)
				if len(f) != 3 {
					return &TransportError{Err: fmt.Errorf("bad key line %q", line)}
				}
				n, _ := strconv.Atoi(f[2])
				out = append(out, KeyCount{Key: f[1], Count: n})
			case strings.HasPrefix(line, "END "):
				return nil
			case strings.HasPrefix(line, "ERR "):
				return parseWireErr(strings.TrimPrefix(line, "ERR "))
			default:
				return &TransportError{Err: fmt.Errorf("unexpected line %q", line)}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Window returns the current window bounds and readiness.
func (c *Client) Window() (from, to int, ready bool, err error) {
	err = c.do(func() error {
		fmt.Fprintln(c.w, "WINDOW")
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		body, err := c.expectOK()
		if err != nil {
			return err
		}
		var readyStr string
		if _, err := fmt.Sscanf(body, "%d %d ready=%s", &from, &to, &readyStr); err != nil {
			return fmt.Errorf("server: bad WINDOW reply %q", body)
		}
		ready = readyStr == "true"
		return nil
	})
	if err != nil {
		return 0, 0, false, err
	}
	return from, to, ready, nil
}

// RecoverResult is a parsed RECOVER reply.
type RecoverResult struct {
	CheckpointDay int
	Replayed      int
	Uncommitted   int
	Torn          bool
	// ShardsReplayed lists the shards that actually replayed journal
	// batches (a single journaled index reports shard 0). Empty when
	// recovery had nothing to replay.
	ShardsReplayed []int
}

// Recover asks a journaled server to run its recovery protocol.
func (c *Client) Recover() (RecoverResult, error) {
	var r RecoverResult
	err := c.do(func() error {
		r = RecoverResult{}
		fmt.Fprintln(c.w, "RECOVER")
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		body, err := c.expectOK()
		if err != nil {
			return err
		}
		var torn, shards string
		if _, err := fmt.Sscanf(body, "recovered checkpointDay=%d replayed=%d uncommitted=%d torn=%s shardsReplayed=%s",
			&r.CheckpointDay, &r.Replayed, &r.Uncommitted, &torn, &shards); err != nil {
			return fmt.Errorf("server: bad RECOVER reply %q", body)
		}
		r.Torn = torn == "true"
		if shards != "-" {
			for _, s := range strings.Split(shards, ",") {
				n, err := strconv.Atoi(s)
				if err != nil {
					return fmt.Errorf("server: bad shardsReplayed %q in %q", shards, body)
				}
				r.ShardsReplayed = append(r.ShardsReplayed, n)
			}
		}
		return nil
	})
	if err != nil {
		return RecoverResult{}, err
	}
	return r, nil
}

// Info fetches one INFO section — health, stats, metrics, shards,
// cache, events, slo, slowlog or work — and decodes its JSON document
// into v as json.Unmarshal would. args are the section's k=v
// parameters (events takes since=<seq> and max=<n>). The documents'
// Go types are telemetry.Health, wave.Stats, metrics.Snapshot,
// telemetry.Shards, wave.CacheInfo, telemetry.EventsPage, obs.Report,
// []wave.SlowQuery and []wave.CauseStats.
func (c *Client) Info(section string, v any, args ...string) error {
	cmd := strings.Join(append([]string{"INFO", section}, args...), " ")
	return c.do(func() error {
		fmt.Fprintln(c.w, cmd)
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		var doc []byte
		for n := 0; ; n++ {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			if rest, ok := strings.CutPrefix(line, "END "); ok {
				if want, err := strconv.Atoi(rest); err != nil || want != n {
					return &TransportError{Err: fmt.Errorf("INFO %s ended after %d lines with %q", section, n, line)}
				}
				if err := json.Unmarshal(doc, v); err != nil {
					return fmt.Errorf("server: INFO %s: %w", section, err)
				}
				return nil
			}
			if n == 0 {
				if msg, ok := strings.CutPrefix(line, "ERR "); ok {
					return parseWireErr(msg)
				}
				// A document opens with '{', '[' or null; anything else
				// means the stream is out of step.
				if line == "" || !strings.Contains("{[n", line[:1]) {
					return &TransportError{Err: fmt.Errorf("unexpected reply %q", line)}
				}
			}
			doc = append(append(doc, line...), '\n')
		}
	})
}

// SetSlowLogThreshold sets the server's slow-query threshold in
// milliseconds; 0 disables the log.
func (c *Client) SetSlowLogThreshold(ms int) error {
	return c.do(func() error {
		fmt.Fprintf(c.w, "SLOWLOG %d\n", ms)
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		_, err := c.expectOK()
		return err
	})
}

// Trace sets the connection's trace id: subsequent queries on this
// connection carry it through spans and the slow-query log. The id
// survives reconnects (it is replayed after a redial).
func (c *Client) Trace(id string) error {
	err := c.do(func() error {
		fmt.Fprintf(c.w, "TRACE %s\n", id)
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		_, err := c.expectOK()
		return err
	})
	if err == nil {
		c.traceID = id
	}
	return err
}

// ClearTrace clears the connection's trace id.
func (c *Client) ClearTrace() error {
	err := c.do(func() error {
		fmt.Fprintln(c.w, "TRACE -")
		if err := c.w.Flush(); err != nil {
			return &TransportError{Err: err}
		}
		_, err := c.expectOK()
		return err
	})
	if err == nil {
		c.traceID = ""
	}
	return err
}
