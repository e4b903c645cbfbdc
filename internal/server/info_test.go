package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"waveindex/internal/obs"
	"waveindex/internal/telemetry"
	"waveindex/wave"
)

// pipeServer serves one end of a net.Pipe with srv's connection
// handler and returns the other end with a line reader. Cleanup closes
// the pipe and waits for the handler to exit.
func pipeServer(t testing.TB, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	cconn, sconn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(sconn)
	}()
	t.Cleanup(func() {
		cconn.Close()
		<-done
	})
	cconn.SetDeadline(time.Now().Add(10 * time.Second))
	return cconn, bufio.NewReader(cconn)
}

// rawInfo sends one INFO command and returns the document bytes exactly
// as they crossed the wire, checking the END trailer's line count.
func rawInfo(t *testing.T, conn net.Conn, r *bufio.Reader, cmd string) string {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	for n := 0; ; n++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if rest, ok := strings.CutPrefix(line, "END "); ok {
			if rest != strconv.Itoa(n)+"\n" {
				t.Fatalf("%s: trailer %q after %d lines", cmd, line, n)
			}
			return doc.String()
		}
		if n == 0 && strings.HasPrefix(line, "ERR ") {
			t.Fatalf("%s: %s", cmd, line)
		}
		doc.WriteString(line)
	}
}

// infoServer builds a result-cached index past its first transition,
// with an event bus and SLO engine wired and some probe traffic
// recorded.
func infoServer(t *testing.T, busCap int) (*Server, *obs.Bus) {
	t.Helper()
	bus := obs.NewBus(busCap)
	idx, err := wave.New(wave.Config{Window: 3, Indexes: 2, Scheme: wave.DEL, CacheResults: 256,
		Trace: obs.NewSpanEvents(bus, 0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	for d := 1; d <= 4; d++ {
		if err := idx.AddDay(d, postingsFor(d, 6)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewBackend(idx, Options{Events: bus, SLO: obs.NewEngine(obs.Objectives{LatencyUS: 5000}, bus)})
	conn, _ := pipeServer(t, srv)
	c := NewClient(conn)
	for i := 0; i < 10; i++ {
		if _, err := c.Probe(fmt.Sprintf("k%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	return srv, bus
}

// TestInfoMatchesAdminBodies checks the health, slo, cache and events
// documents are the same bytes over INFO as over the admin endpoints.
func TestInfoMatchesAdminBodies(t *testing.T) {
	srv, _ := infoServer(t, 0)
	admin := telemetry.NewHandler(srv.AdminOptions())
	conn, r := pipeServer(t, srv)
	for _, tc := range []struct{ cmd, path string }{
		{"INFO health", "/healthz"},
		{"INFO slo", "/slo"},
		{"INFO cache", "/cache"},
		{"INFO events", "/events"},
		{"INFO events since=2 max=3", "/events?since=2&max=3"},
	} {
		// The SLO windows decay with wall time, so a read may straddle
		// a tick of the last digit; a second pair of reads settles it.
		var wire, body string
		for attempt := 0; attempt < 3; attempt++ {
			wire = rawInfo(t, conn, r, tc.cmd)
			rec := httptest.NewRecorder()
			admin.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("GET %s: status %d, type %q", tc.path, rec.Code, rec.Header().Get("Content-Type"))
			}
			if body = rec.Body.String(); body == wire {
				break
			}
		}
		if body != wire {
			t.Errorf("%s and GET %s differ:\nwire:\n%s\nhttp:\n%s", tc.cmd, tc.path, wire, body)
		}
		if !strings.Contains(wire, "\n  ") {
			t.Errorf("%s is not two-space-indented JSON:\n%s", tc.cmd, wire)
		}
	}
}

// TestInfoEventsFullRing fills a 4096-event ring with events carrying
// Fields and awkward strings: INFO events must return every one intact
// through the client and its unchanged 1 MiB line cap.
func TestInfoEventsFullRing(t *testing.T) {
	srv, bus := infoServer(t, 4096)
	for i := 0; bus.LastSeq() < 4096; i++ {
		bus.Publish(obs.Event{
			Type: obs.EventNetFault, Shard: i % 3, Cmd: "probe", Cause: "torn \"ack\"\nEND 0",
			TraceID: fmt.Sprintf("req-%d", i), Day: i, Ops: 2, DurationUS: int64(i), Value: -1,
			Fields: map[string]string{"op": "read", "action": "delay", "note": strings.Repeat("x", 64)},
		})
	}
	want, dropped := bus.Since(0)
	conn, _ := pipeServer(t, srv)
	c := NewClient(conn)
	var page telemetry.EventsPage
	if err := c.Info("events", &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 4096 || page.Dropped != dropped || page.Last != bus.LastSeq() {
		t.Fatalf("INFO events = %d events last=%d dropped=%d, want 4096/%d/%d",
			len(page.Events), page.Last, page.Dropped, bus.LastSeq(), dropped)
	}
	for i, got := range page.Events {
		if !got.Time.Equal(want[i].Time) {
			t.Fatalf("event %d time %v, want %v", i, got.Time, want[i].Time)
		}
		got.Time = want[i].Time
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("event %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestInfoReplacesObservabilityCommands checks the nine retired
// observability commands are unknown and every INFO section answers.
func TestInfoReplacesObservabilityCommands(t *testing.T) {
	srv, _ := infoServer(t, 0)
	conn, r := pipeServer(t, srv)
	for _, cmd := range []string{"STATS", "WORK", "METRICS", "METRICS SHARDS", "CACHE",
		"EVENTS", "SLO", "SLOWLOG", "HEALTH"} {
		fmt.Fprintf(conn, "%s\n", cmd)
		if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "ERR unknown command") {
			t.Errorf("%s -> %q (%v), want ERR unknown command", cmd, line, err)
		}
	}
	c := NewClient(conn)
	for _, section := range []string{"health", "stats", "metrics", "shards", "cache",
		"events", "slo", "slowlog", "work"} {
		var doc json.RawMessage
		if err := c.Info(section, &doc); err != nil || len(doc) == 0 {
			t.Errorf("INFO %s: %v (%d bytes)", section, err, len(doc))
		}
	}
	for _, bad := range []string{"nosuch", "events since=x", "events max=-1", "events since", "events =3"} {
		var doc json.RawMessage
		if err := c.Info(bad, &doc); err == nil || IsRetryable(err) {
			t.Errorf("INFO %s: err = %v, want a plain error", bad, err)
		}
	}
}

// FuzzServerCommand feeds arbitrary command lines to a server on a
// small ready index. Every reply must be one OK/ERR line or a stream
// ending in an END line whose count matches, and a following WINDOW
// must still answer.
func FuzzServerCommand(f *testing.F) {
	for _, seed := range []string{
		"ADDDAY 4 0", "ADDDAY 4 1", "ADDDAY 4 1 id=r1", "ADDDAY x 1", "ADDDAY 4 -1", "ADDDAY 4 99999999",
		"FLUSH", "PROBE k1", "PROBE", "PROBERANGE k1 2 3", "PROBERANGE k1 x 3",
		"MPROBE 2 3 k1 k2 k1", "MPROBE 2", "COUNT", "COUNT 2 3", "COUNT x", "TOPK 3", "TOPK 0",
		"TOPK 99999999999", "WINDOW", "TRACE t1", "TRACE -", "TRACE a b", "PARTIAL on", "PARTIAL maybe",
		"SLOWLOG 0", "SLOWLOG 5", "SLOWLOG x", "SLOWLOG 1 2", "RECOVER", "QUIT",
		"INFO health", "INFO stats", "INFO metrics", "INFO shards", "INFO cache", "INFO events",
		"INFO slo", "INFO slowlog", "INFO work", "info Events since=1 max=2",
		"INFO events since=", "INFO events since=-1", "INFO events max=x", "INFO events =5",
		"INFO events since", "INFO health a=b=c", "INFO", "INFO nosuch",
		"STATS", "WORK", "METRICS", "METRICS SHARDS", "CACHE", "EVENTS", "SLO", "SLOWLOG", "HEALTH", "NOSUCH",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\r\n") || strings.TrimSpace(line) == "" || len(line) > 4096 {
			t.Skip("one non-blank protocol line per input")
		}
		idx, err := wave.New(wave.Config{Window: 2, Indexes: 2, Scheme: wave.REINDEX})
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		for d := 1; d <= 3; d++ {
			if err := idx.AddDay(d, postingsFor(d, 3)); err != nil {
				t.Fatal(err)
			}
		}
		bus := obs.NewBus(64)
		srv := NewBackend(idx, Options{Events: bus, SLO: obs.NewEngine(obs.Objectives{}, bus)})
		conn, r := pipeServer(t, srv)
		// ADDDAY consumes at most the first WINDOW, as a bad posting.
		go conn.Write([]byte(line + "\nWINDOW\nWINDOW\n"))
		read := func() string {
			l, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("%q: reading reply: %v", line, err)
			}
			return strings.TrimSuffix(l, "\n")
		}
		first := read()
		if !strings.HasPrefix(first, "OK") && !strings.HasPrefix(first, "ERR ") {
			mprobe := strings.EqualFold(strings.Fields(line)[0], "MPROBE")
			lines, keys := 0, 0
			for l := first; ; l = read() {
				if rest, ok := strings.CutPrefix(l, "END "); ok {
					want := lines
					if mprobe {
						want = keys
					}
					if rest != strconv.Itoa(want) {
						t.Fatalf("%q: trailer %q after %d lines (%d keys)", line, l, lines, keys)
					}
					break
				}
				if strings.HasPrefix(l, "OK") || strings.HasPrefix(l, "ERR ") {
					t.Fatalf("%q: status line %q inside a stream", line, l)
				}
				lines++
				if strings.HasPrefix(l, "KEY ") {
					keys++
				}
			}
		}
		if first == "OK bye" {
			// QUIT hung up; a fresh connection must still be served.
			conn, r = pipeServer(t, srv)
			go conn.Write([]byte("WINDOW\n"))
		}
		var from, to int
		var ready bool
		w := read()
		if _, err := fmt.Sscanf(w, "OK %d %d ready=%t", &from, &to, &ready); err != nil {
			t.Fatalf("%q: WINDOW answered %q", line, w)
		}
	})
}
