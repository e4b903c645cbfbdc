package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"waveindex/internal/telemetry"
	"waveindex/wave"
)

// startServerOpts is startServer with explicit Options and a handle on
// the server itself (for Shutdown tests).
func startServerOpts(t *testing.T, cfg wave.Config, opts Options) (*Server, net.Listener, *wave.Index) {
	t.Helper()
	idx, err := wave.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(idx, opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		idx.Close()
	})
	return srv, l, idx
}

// readReply reads one response line from a raw connection, bounded by a
// client-side deadline so a wedged server fails the test instead of
// hanging it.
func readReply(t *testing.T, conn net.Conn) (string, error) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return bufio.NewReader(conn).ReadString('\n')
}

// A half-written ADDDAY batch must not wedge the connection goroutine:
// the read deadline fires, the server reports the broken batch, and the
// connection closes.
func TestHalfWrittenCommandTimesOut(t *testing.T) {
	_, l, _ := startServerOpts(t,
		wave.Config{Window: 3, Indexes: 2, Scheme: wave.REINDEX},
		Options{ReadTimeout: 200 * time.Millisecond})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare 5 postings, deliver only one, then stall.
	fmt.Fprintf(conn, "ADDDAY 1 5\nalpha 1 0\n")
	start := time.Now()
	line, err := readReply(t, conn)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if !strings.HasPrefix(line, "ERR ") {
		t.Fatalf("want ERR for broken batch, got %q", line)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("server took %v to give up on the stalled batch", elapsed)
	}
	// The server closes the connection after the scanner dies: the next
	// read must terminate (EOF), not block.
	if _, err := readReply(t, conn); err == nil {
		t.Fatal("connection still open after broken batch")
	}
}

// A stalled client that never finishes its first line is disconnected
// by the read deadline rather than holding a goroutine forever. The
// half-written command may be flushed through as a final token (and
// rejected), but the connection must reach EOF promptly either way.
func TestStalledClientDisconnected(t *testing.T) {
	_, l, _ := startServerOpts(t,
		wave.Config{Window: 3, Indexes: 2, Scheme: wave.REINDEX},
		Options{ReadTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "PROBE") // no terminating newline, then silence
	start := time.Now()
	for i := 0; ; i++ {
		if _, err := readReply(t, conn); err != nil {
			break // connection closed
		}
		if i > 4 {
			t.Fatal("server kept answering a dead connection")
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled connection held open for %v", elapsed)
	}
}

// Lines beyond MaxLineBytes get an explicit error and the connection is
// closed instead of buffering without bound.
func TestMaxLineGuard(t *testing.T) {
	_, l, _ := startServerOpts(t,
		wave.Config{Window: 3, Indexes: 2, Scheme: wave.REINDEX},
		Options{MaxLineBytes: 256})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "PROBE %s\n", strings.Repeat("x", 4096))
	line, err := readReply(t, conn)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if !strings.Contains(line, "exceeds") {
		t.Fatalf("want line-too-long error, got %q", line)
	}
	if _, err := readReply(t, conn); err == nil {
		t.Fatal("connection still open after oversized line")
	}
}

// An ADDDAY header may not demand an unbounded allocation.
func TestBatchCap(t *testing.T) {
	_, l, _ := startServerOpts(t,
		wave.Config{Window: 3, Indexes: 2, Scheme: wave.REINDEX},
		Options{MaxBatchPostings: 10})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "ADDDAY 1 1000000000\n")
	line, err := readReply(t, conn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR ") || !strings.Contains(line, "exceeds limit") {
		t.Fatalf("want batch-cap error, got %q", line)
	}
}

// INFO health works on a plain index; RECOVER requires a journal.
func TestHealthPlainIndex(t *testing.T) {
	c, _ := startServer(t, wave.Config{Window: 3, Indexes: 2, Scheme: wave.REINDEX})
	var h telemetry.Health
	if err := c.Info("health", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Ready || h.Degraded || h.NeedsRecovery || h.Journaled {
		t.Fatalf("unexpected health before ingestion: %+v", h)
	}
	if err := c.AddDay(1, postingsFor(1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(); err == nil {
		t.Fatal("RECOVER succeeded without a journal")
	}
}

// A journaled server ingests through the journal, answers INFO health, and
// RECOVER rebuilds an equivalent index that keeps serving.
func TestJournaledServerRecover(t *testing.T) {
	cfg := wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEXPlus}
	jr, err := wave.OpenJournaled(cfg, wave.NewMemJournalStorage(), wave.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewJournaled(jr, Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		jr.Close()
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for day := 1; day <= 5; day++ {
		if err := c.AddDay(day, postingsFor(day, 6)); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	var h telemetry.Health
	if err := c.Info("health", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Ready || !h.Journaled {
		t.Fatalf("unexpected health: %+v", h)
	}
	before, err := c.Probe("k1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(); err != nil {
		t.Fatalf("RECOVER: %v", err)
	}
	after, err := c.Probe("k1")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("probe changed across recovery: %d entries before, %d after", len(before), len(after))
	}
	// Ingestion continues against the recovered index.
	if err := c.AddDay(6, postingsFor(6, 6)); err != nil {
		t.Fatalf("post-recovery ADDDAY: %v", err)
	}
}

// Shutdown wakes idle readers, refuses further commands, and returns
// once connections drain.
func TestGracefulShutdown(t *testing.T) {
	srv, l, _ := startServerOpts(t,
		wave.Config{Window: 3, Indexes: 2, Scheme: wave.REINDEX},
		Options{})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Prove the connection is live, then leave it idle in a blocked read.
	fmt.Fprintf(conn, "WINDOW\n")
	if line, err := readReply(t, conn); err != nil || !strings.HasPrefix(line, "OK") {
		t.Fatalf("WINDOW: %q, %v", line, err)
	}

	l.Close()
	start := time.Now()
	srv.Shutdown(2 * time.Second)
	if elapsed := time.Since(start); elapsed > 2500*time.Millisecond {
		t.Fatalf("Shutdown took %v, grace was 2s", elapsed)
	}
	// The idle connection was woken: it sees either the shutdown notice
	// or a closed connection, but never blocks.
	line, err := readReply(t, conn)
	if err == nil && !strings.Contains(line, "shutting down") {
		t.Fatalf("unexpected reply during shutdown: %q", line)
	}
}
