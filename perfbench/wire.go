package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"waveindex/internal/server"
	"waveindex/wave"
)

// opTimeout bounds every wire round trip; clients never retry, so a
// failure is counted rather than hidden.
const opTimeout = 5 * time.Second

// wireServer is a waved server on a loopback listener in this process.
type wireServer struct {
	srv  *server.Server
	ln   net.Listener
	done chan error
	// read counts the bytes every client of this server received.
	read    atomic.Int64
	clients []*server.Client
}

func serve(b server.Backend) (*wireServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	w := &wireServer{srv: server.NewBackend(b, server.Options{}), ln: ln, done: make(chan error, 1)}
	go func() { w.done <- w.srv.Serve(ln) }()
	return w, nil
}

// dial opens a client connection with retries off, under a counting
// net.Conn.
func (w *wireServer) dial() (*server.Client, error) {
	conn, err := net.Dial("tcp", w.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c := server.NewClientOptions(countingConn{Conn: conn, read: &w.read},
		server.ClientOptions{OpTimeout: opTimeout, Seed: 1})
	w.clients = append(w.clients, c)
	return c, nil
}

// close hangs up every client, stops the server and waits for it.
func (w *wireServer) close() error {
	for _, c := range w.clients {
		c.Close()
	}
	w.srv.Close()
	err := w.ln.Close()
	if serr := <-w.done; serr != nil {
		err = serr
	}
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	return err
}

// fromWire converts the client's TopK rows to the library's type.
func fromWire(top []server.KeyCount) []wave.KeyCount {
	out := make([]wave.KeyCount, len(top))
	for i, kc := range top {
		out[i] = wave.KeyCount{Key: kc.Key, Count: kc.Count}
	}
	return out
}

// allocsPerOp runs op n times on the calling goroutine and returns the
// heap allocations and bytes per call.
func allocsPerOp(n int, op func(i int)) (allocs, bytes float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
