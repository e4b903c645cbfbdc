package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"waveindex/internal/metrics"
	"waveindex/internal/netfault"
	"waveindex/wave"
)

// scriptServer runs one handler per accepted connection, in order, and
// returns the address to dial. It lets tests script exact wire
// behaviour — torn replies, closed connections, BUSY errors — that a
// real server produces only under load.
func scriptServer(t *testing.T, handlers ...func(conn net.Conn, sc *bufio.Scanner)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for _, h := range handlers {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			h(conn, bufio.NewScanner(conn))
			conn.Close()
		}
	}()
	return l.Addr().String()
}

func fastRetry(n int) ClientOptions {
	return ClientOptions{
		MaxRetries: n,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Seed:       1,
	}
}

func TestClientRetriesBusy(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, sc *bufio.Scanner) {
		sc.Scan() // COUNT, attempt 1: shed it
		fmt.Fprintln(conn, "ERR BUSY retry-after=1")
		sc.Scan() // COUNT, attempt 2: answer
		fmt.Fprintln(conn, "OK 7")
		sc.Scan() // QUIT
	})
	c, err := DialOptions(addr, fastRetry(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Count(0, 0)
	if err != nil {
		t.Fatalf("Count after BUSY retry: %v", err)
	}
	if n != 7 {
		t.Fatalf("Count = %d, want 7", n)
	}
}

func TestClientBusyWithoutRetriesIsTyped(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, sc *bufio.Scanner) {
		sc.Scan()
		fmt.Fprintln(conn, "ERR BUSY retry-after=25")
		sc.Scan() // QUIT
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Count(0, 0)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("Count error = %v, want *BusyError", err)
	}
	if busy.RetryAfter != 25*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 25ms", busy.RetryAfter)
	}
	if !IsRetryable(err) {
		t.Error("BUSY should be retryable")
	}
}

// TestClientRedialReplaysState tears the connection mid-query and
// checks the retry redials and replays connection-scoped state (trace
// id, partial mode) before resending — and that DEGRADED annotation
// lines on the new connection land in Degraded().
func TestClientRedialReplaysState(t *testing.T) {
	var second []string
	addr := scriptServer(t,
		func(conn net.Conn, sc *bufio.Scanner) {
			sc.Scan() // TRACE t1
			fmt.Fprintln(conn, "OK trace=t1")
			sc.Scan() // PARTIAL on
			fmt.Fprintln(conn, "OK partial=on")
			sc.Scan() // COUNT — hang up without replying
		},
		func(conn net.Conn, sc *bufio.Scanner) {
			for sc.Scan() {
				line := sc.Text()
				second = append(second, line)
				switch {
				case strings.HasPrefix(line, "TRACE"), strings.HasPrefix(line, "PARTIAL"):
					fmt.Fprintln(conn, "OK")
				case line == "COUNT":
					fmt.Fprintln(conn, "DEGRADED 1 3 breaker-open")
					fmt.Fprintln(conn, "OK 5")
				case line == "QUIT":
					return
				}
			}
		},
	)
	c, err := DialOptions(addr, fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Trace("t1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Partial(true); err != nil {
		t.Fatal(err)
	}
	n, err := c.Count(0, 0)
	if err != nil {
		t.Fatalf("Count after redial: %v", err)
	}
	if n != 5 {
		t.Fatalf("Count = %d, want 5", n)
	}
	wantPrefix := []string{"TRACE t1", "PARTIAL on", "COUNT"}
	if len(second) < len(wantPrefix) {
		t.Fatalf("second connection saw %q, want prefix %q", second, wantPrefix)
	}
	for i, want := range wantPrefix {
		if second[i] != want {
			t.Errorf("second conn line %d = %q, want %q", i, second[i], want)
		}
	}
	deg := c.Degraded()
	if len(deg) != 1 || deg[0].Shard != 1 || deg[0].Shards != 3 || deg[0].Cause != "breaker-open" {
		t.Errorf("Degraded() = %+v, want [{1 3 breaker-open}]", deg)
	}
}

// Satellite: a reply stream torn mid-frame (entries promised, connection
// dropped) must surface as a retryable transport error, not a partial
// answer.
func TestClientTornReplyMidFrame(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, sc *bufio.Scanner) {
		sc.Scan() // PROBE k
		fmt.Fprintln(conn, "ENTRY 1 2 3")
		// Promised more (no END) — hang up mid-frame.
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	es, err := c.Probe("k")
	var tr *TransportError
	if !errors.As(err, &tr) {
		t.Fatalf("Probe error = %v, want *TransportError", err)
	}
	if !IsRetryable(err) {
		t.Error("torn reply should be retryable")
	}
	if es != nil {
		t.Errorf("torn probe returned entries %v, want none", es)
	}
}

// Satellite: connection closed between request and response.
func TestClientConnClosedBeforeReply(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, sc *bufio.Scanner) {
		sc.Scan() // COUNT — close without any reply
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Count(0, 0)
	var tr *TransportError
	if !errors.As(err, &tr) {
		t.Fatalf("Count error = %v, want *TransportError", err)
	}
}

// Satellite: a reply line exceeding the client's scanner limit must
// error out, not hang or silently truncate.
func TestClientOversizedReplyLine(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, sc *bufio.Scanner) {
		sc.Scan() // INFO stats
		conn.Write([]byte("OK " + strings.Repeat("x", 2<<20) + "\n"))
		sc.Scan()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var st wave.Stats
	err = c.Info("stats", &st)
	var tr *TransportError
	if !errors.As(err, &tr) {
		t.Fatalf("Info error = %v, want *TransportError", err)
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("Info error = %v, want to wrap bufio.ErrTooLong", err)
	}
}

// TestClientCountMismatchIsTransport: an END header disagreeing with the
// streamed entries means the stream is desynchronised — transport error.
func TestClientCountMismatchIsTransport(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, sc *bufio.Scanner) {
		sc.Scan()
		fmt.Fprintln(conn, "ENTRY 1 2 3")
		fmt.Fprintln(conn, "END 2")
		sc.Scan()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Probe("k")
	var tr *TransportError
	if !errors.As(err, &tr) {
		t.Fatalf("Probe error = %v, want *TransportError", err)
	}
}

func TestParseWireErr(t *testing.T) {
	var busy *BusyError
	if err := parseWireErr("BUSY retry-after=50"); !errors.As(err, &busy) || busy.RetryAfter != 50*time.Millisecond {
		t.Errorf("BUSY parse = %v", err)
	}
	if err := parseWireErr("UNAVAILABLE shard 2 breaker open"); !errors.Is(err, wave.ErrUnavailable) {
		t.Errorf("UNAVAILABLE parse = %v, want wrapped wave.ErrUnavailable", err)
	} else if !IsRetryable(err) {
		t.Error("UNAVAILABLE should be retryable")
	}
	if err := parseWireErr("no such command"); IsRetryable(err) {
		t.Errorf("plain error %v should not be retryable", err)
	}
}

// TestClientAddDayIdempotentRetry runs a real server behind a
// fault-injecting listener that resets the connection on the server's
// very first reply write: the client has sent the batch, the server has
// applied it, and the acknowledgement is lost. The retried batch must
// be answered from the server's dedupe cache, not applied twice.
func TestClientAddDayIdempotentRetry(t *testing.T) {
	idx, err := wave.New(wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEXPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := netfault.NewSet()
	// Reset the connection on the server's first write: the ADDDAY ack.
	faults.FailSchedule(netfault.OpWrite, netfault.ActReset, nil, 1)
	l := netfault.WrapListener(raw, faults)
	srv := New(idx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		<-done
		idx.Close()
	})

	c, err := DialOptions(raw.Addr().String(), fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for d := 1; d <= 5; d++ {
		if err := c.AddDay(d, postingsFor(d, 6)); err != nil {
			t.Fatalf("AddDay(%d): %v", d, err)
		}
	}
	if !faults.AnyFired() {
		t.Fatal("write fault never fired; test exercised nothing")
	}
	n, err := c.Count(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*6 { // window holds days 2..5, 6 postings each
		t.Fatalf("Count = %d, want 24 (day applied twice?)", n)
	}
	var m metrics.Snapshot
	if err := c.Info("metrics", &m); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("server_addday_dedup_total"); got != 1 {
		t.Errorf("server_addday_dedup_total = %d, want 1", got)
	}
}

// slowBackend holds every AddDay open until the gate releases, so a
// test can park one batch mid-apply while a replay of the same request
// ID races it.
type slowBackend struct {
	*wave.Index
	gate    chan struct{}
	applies atomic.Int32
}

func (b *slowBackend) AddDay(day int, ps []wave.Posting) error {
	b.applies.Add(1)
	err := b.Index.AddDay(day, ps)
	<-b.gate
	return err
}

// TestAddDayReplayRacingInFlightApply is the regression test for the
// dedupe begin/commit redesign: a retry of an ADDDAY that is still
// being applied (op timeout shorter than ingest time) must wait for the
// original attempt and answer from its cached reply — never re-apply
// the batch.
func TestAddDayReplayRacingInFlightApply(t *testing.T) {
	idx, err := wave.New(wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEXPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	bk := &slowBackend{Index: idx, gate: make(chan struct{})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackend(bk, Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		<-done
		idx.Close()
	})

	send := func() chan string {
		t.Helper()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		fmt.Fprintf(conn, "ADDDAY 1 2 id=same\nk1 1 0\nk2 2 0\n")
		reply := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(conn)
			if sc.Scan() {
				reply <- sc.Text()
			} else {
				reply <- fmt.Sprintf("read failed: %v", sc.Err())
			}
		}()
		return reply
	}

	first := send()
	// Wait until the original attempt is parked mid-apply.
	for i := 0; bk.applies.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("original ADDDAY never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	second := send()
	select {
	case r := <-second:
		t.Fatalf("replay answered %q while the original was still applying", r)
	case <-time.After(30 * time.Millisecond):
	}
	close(bk.gate)
	for _, ch := range []chan string{first, second} {
		if r := <-ch; !strings.HasPrefix(r, "OK") {
			t.Fatalf("reply = %q, want OK", r)
		}
	}
	if n := bk.applies.Load(); n != 1 {
		t.Fatalf("batch applied %d times, want exactly once", n)
	}
}

// TestClientReconnectReplayHonorsOpTimeout: a redial that reaches a
// stalled server must time out during the connection-state replay
// instead of hanging forever — the replay runs in ensureConn, before
// do() arms its per-attempt deadline.
func TestClientReconnectReplayHonorsOpTimeout(t *testing.T) {
	stall := make(chan struct{})
	addr := scriptServer(t,
		func(conn net.Conn, sc *bufio.Scanner) {
			sc.Scan() // TRACE t1
			fmt.Fprintln(conn, "OK")
			sc.Scan() // COUNT — hang up without replying
		},
		func(conn net.Conn, sc *bufio.Scanner) {
			sc.Scan() // replayed TRACE — never answer
			<-stall
		},
	)
	t.Cleanup(func() { close(stall) })
	opts := fastRetry(1)
	opts.OpTimeout = 50 * time.Millisecond
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Trace("t1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Count(0, 0)
		done <- err
	}()
	select {
	case err := <-done:
		var tr *TransportError
		if !errors.As(err, &tr) {
			t.Fatalf("Count = %v, want *TransportError from the timed-out replay", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client hung reconnecting to a stalled server; replay not bounded by OpTimeout")
	}
}

// TestClientRequestIDsUnique checks request IDs differ across calls but
// are stable within one call's retries (the dedupe contract).
func TestClientRequestIDsUnique(t *testing.T) {
	var ids []string
	addr := scriptServer(t, func(conn net.Conn, sc *bufio.Scanner) {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "ADDDAY ") {
				f := strings.Fields(line)
				ids = append(ids, f[len(f)-1])
				fmt.Fprintln(conn, "OK added")
			} else if line == "QUIT" {
				return
			}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddDay(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDay(2, nil); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("request ids = %v, want two distinct id=... fields", ids)
	}
	for _, id := range ids {
		if !strings.HasPrefix(id, "id=") {
			t.Errorf("request id field %q missing id= prefix", id)
		}
	}
}
