package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"waveindex/internal/metrics"
	"waveindex/internal/netfault"
	"waveindex/internal/simdisk"
	"waveindex/internal/telemetry"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// This file is the resilience tier's end-to-end proof: a 3-shard
// journaled fleet served behind a fault-injecting listener, driven by
// retrying clients while wire faults tear connections and a simdisk
// fault plan blacks out one shard's reads. The invariant under all of
// it: a query either succeeds with the exact right answer, fails with a
// typed retryable error, or returns partial results whose degraded
// annotation names exactly the shards behind open breakers — never a
// silently wrong answer. It is the `make netchaos-smoke` target.

// soakKeys is the fixed keyspace; every key gets exactly one entry per
// day, so ground truth is computable from the window alone.
const soakNumKeys = 24

func soakKey(i int) string { return fmt.Sprintf("soak-k%02d", i) }

func soakPostings(day int) []wave.Posting {
	out := make([]wave.Posting, 0, soakNumKeys)
	for i := 0; i < soakNumKeys; i++ {
		out = append(out, wave.Posting{
			Key:   soakKey(i),
			Entry: wave.Entry{RecordID: uint64(day*1000 + i), Aux: uint32(i), Day: int32(day)},
		})
	}
	return out
}

// soakFleet is the system under chaos: the router (for shard-ownership
// ground truth and fault hooks), the server, and the wire fault set on
// its listener.
type soakFleet struct {
	r    *shard.Router
	srv  *Server
	addr string
	wire *netfault.Set
	days int // highest day ingested; window is [days-5, days]
}

func startSoakFleet(t *testing.T) *soakFleet {
	t.Helper()
	cfg := shard.Config{
		Shards: 3,
		Base:   wave.Config{Window: 6, Indexes: 3, Scheme: wave.REINDEXPlusPlus},
		// Cooldown far beyond the test horizon: breakers close via
		// RECOVER here, not half-open probes (those are covered in
		// wave/shard breaker tests), so every mid-soak query outcome is
		// deterministic.
		Breaker: shard.BreakerConfig{Threshold: 3, Cooldown: time.Hour},
	}
	storages := []*wave.JournalStorage{
		wave.NewMemJournalStorage(), wave.NewMemJournalStorage(), wave.NewMemJournalStorage(),
	}
	r, err := shard.NewJournaled(cfg, storages, wave.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wire := netfault.NewSet()
	l := netfault.WrapListener(raw, wire)
	srv := NewBackend(r, Options{
		MaxInFlight:   8,
		AdmissionWait: 2 * time.Millisecond,
		RetryAfter:    5 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		r.Close()
	})
	return &soakFleet{r: r, srv: srv, addr: raw.Addr().String(), wire: wire}
}

func (f *soakFleet) client(t *testing.T, seed int64) *Client {
	t.Helper()
	c, err := DialOptions(f.addr, ClientOptions{
		OpTimeout:  2 * time.Second,
		MaxRetries: 8,
		Backoff:    time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// window returns the current window's day bounds.
func (f *soakFleet) window() (from, to int) {
	from = f.days - 5
	if from < 1 {
		from = 1
	}
	return from, f.days
}

// expectEntries is the per-key ground truth: one entry per window day.
func (f *soakFleet) expectEntries(key int, from, to int) []uint64 {
	lo, hi := f.window()
	if from > lo {
		lo = from
	}
	if to < hi {
		hi = to
	}
	var ids []uint64
	for d := lo; d <= hi; d++ {
		ids = append(ids, uint64(d*1000+key))
	}
	return ids
}

// ownedBy lists the key indices the given shard owns.
func (f *soakFleet) ownedBy(shardID int) []int {
	var out []int
	for i := 0; i < soakNumKeys; i++ {
		if f.r.ShardFor(soakKey(i)) == shardID {
			out = append(out, i)
		}
	}
	return out
}

func checkEntryIDs(t *testing.T, label string, got []wave.Entry, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, want %d", label, len(got), len(want))
		return
	}
	for i, e := range got {
		if e.RecordID != want[i] {
			t.Errorf("%s: entry %d RecordID=%d, want %d", label, i, e.RecordID, want[i])
			return
		}
	}
}

// breakShard arms a permanent read fault on every store of shard i and
// returns the stores for later ClearFaults.
func (f *soakFleet) breakShard(t *testing.T, i int) []*simdisk.Store {
	t.Helper()
	j := f.r.JournaledShard(i)
	if j == nil {
		t.Fatalf("shard %d is not journaled", i)
	}
	stores := j.Index().Stores()
	for _, st := range stores {
		st.FailProb(simdisk.OpRead, 1, 1, errors.New("injected read blackout"))
	}
	return stores
}

func TestNetChaosSoak(t *testing.T) {
	f := startSoakFleet(t)
	loader := f.client(t, 11)

	// Phase 1: clean load. Days 1..8 fill and slide the 6-day window.
	for d := 1; d <= 8; d++ {
		if err := loader.AddDay(d, soakPostings(d)); err != nil {
			t.Fatalf("load day %d: %v", d, err)
		}
		f.days = d
	}
	n, err := loader.Count(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6*soakNumKeys {
		t.Fatalf("clean Count = %d, want %d", n, 6*soakNumKeys)
	}

	// Phase 2: torn acknowledgements during ingestion. The connection is
	// reset exactly as the server acks days 9 and 11: the client cannot
	// know whether the batch applied, resends it under the same request
	// ID, and the server's dedupe cache must keep it applied-once. Each
	// ack is one server write; occurrence 2 is the dedupe replay of day
	// 9's ack, so the next fresh ack (day 10) is write 3 and day 11's is
	// write 4.
	f.wire.FailSchedule(netfault.OpWrite, netfault.ActReset, nil, 1, 4)
	for d := 9; d <= 12; d++ {
		if err := loader.AddDay(d, soakPostings(d)); err != nil {
			t.Fatalf("chaos load day %d: %v", d, err)
		}
		f.days = d
	}
	f.wire.Clear()
	if !loader.ensureConnForTest(t) {
		t.Fatal("loader lost its connection permanently")
	}
	n, err = loader.Count(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6*soakNumKeys {
		t.Fatalf("post-torn-ack Count = %d, want %d (a day applied twice or dropped)", n, 6*soakNumKeys)
	}
	var m metrics.Snapshot
	if err := loader.Info("metrics", &m); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("server_addday_dedup_total"); got != 2 {
		t.Errorf("server_addday_dedup_total = %d, want 2", got)
	}

	// Phase 3: black out shard 2's reads and trip its breaker with
	// queries that must touch it (pre-open failures may be untyped; the
	// contract starts once the breaker is open).
	const broken = 2
	stores := f.breakShard(t, broken)
	brokenKeys := f.ownedBy(broken)
	if len(brokenKeys) == 0 {
		t.Fatal("no keys hash to the broken shard; enlarge the keyspace")
	}
	tripper := f.client(t, 13)
	from, to := f.window()
	for i := 0; i < 50; i++ {
		tripper.ProbeRange(soakKey(brokenKeys[0]), from, to)
		var h telemetry.Health
		if err := tripper.Info("health", &h); err != nil {
			t.Fatalf("Health while tripping: %v", err)
		}
		if h.OpenBreakers == 1 {
			break
		}
		if i == 49 {
			t.Fatalf("breaker never opened: %+v", h)
		}
	}

	// Phase 4: the soak proper. Wire noise (probabilistic resets, added
	// latency) on top of the blacked-out shard; concurrent partial and
	// strict clients; every outcome checked against ground truth.
	f.wire.SetLatency(200 * time.Microsecond)
	f.wire.FailProb(netfault.OpRead, 0.02, 17, netfault.ActReset, nil)
	f.wire.FailProb(netfault.OpWrite, 0.02, 19, netfault.ActReset, nil)

	wantPartialCount := 6 * (soakNumKeys - len(brokenKeys))
	wantDegraded := []wave.DegradedSlice{{Shard: broken, Shards: 3, Cause: "breaker-open"}}
	checkDegraded := func(t *testing.T, label string, got []wave.DegradedSlice) {
		t.Helper()
		if len(got) != 1 || got[0].Shard != wantDegraded[0].Shard || got[0].Shards != wantDegraded[0].Shards {
			t.Errorf("%s: degraded = %+v, want %+v", label, got, wantDegraded)
		}
	}

	var wg sync.WaitGroup
	const itersPerWorker = 30
	// Two partial-results clients: queries must succeed with the healthy
	// remainder, annotated with exactly the open breaker's slice.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := f.client(t, int64(100+w))
			if err := c.Partial(true); err != nil {
				t.Errorf("partial worker %d: PARTIAL on: %v", w, err)
				return
			}
			for i := 0; i < itersPerWorker; i++ {
				switch i % 3 {
				case 0:
					n, err := c.Count(0, 0)
					if err != nil {
						t.Errorf("partial Count: %v", err)
						continue
					}
					if n != wantPartialCount {
						t.Errorf("partial Count = %d, want %d", n, wantPartialCount)
					}
					checkDegraded(t, "partial Count", c.Degraded())
				case 1:
					k := (w*itersPerWorker + i) % soakNumKeys
					es, err := c.ProbeRange(soakKey(k), from, to)
					if err != nil {
						t.Errorf("partial ProbeRange(%s): %v", soakKey(k), err)
						continue
					}
					if f.r.ShardFor(soakKey(k)) == broken {
						if len(es) != 0 {
							t.Errorf("partial probe of broken-shard key %s returned %d entries", soakKey(k), len(es))
						}
						checkDegraded(t, "partial broken-key probe", c.Degraded())
					} else {
						checkEntryIDs(t, fmt.Sprintf("partial probe %s", soakKey(k)), es, f.expectEntries(k, from, to))
						if len(c.Degraded()) != 0 {
							t.Errorf("healthy-shard probe annotated degraded: %+v", c.Degraded())
						}
					}
				case 2:
					keys := make([]string, soakNumKeys)
					for k := range keys {
						keys[k] = soakKey(k)
					}
					res, err := c.MultiProbe(keys, from, to)
					if err != nil {
						t.Errorf("partial MultiProbe: %v", err)
						continue
					}
					for k := 0; k < soakNumKeys; k++ {
						if f.r.ShardFor(soakKey(k)) == broken {
							if len(res[soakKey(k)]) != 0 {
								t.Errorf("partial MultiProbe returned entries for broken-shard key %s", soakKey(k))
							}
						} else {
							checkEntryIDs(t, fmt.Sprintf("partial MultiProbe %s", soakKey(k)), res[soakKey(k)], f.expectEntries(k, from, to))
						}
					}
					checkDegraded(t, "partial MultiProbe", c.Degraded())
				}
			}
		}(w)
	}
	// Two strict clients: fan-out queries must fail typed-retryable
	// (never a wrong total); single-shard queries on healthy shards must
	// stay exact.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := f.client(t, int64(200+w))
			for i := 0; i < itersPerWorker; i++ {
				if i%2 == 0 {
					n, err := c.Count(0, 0)
					if err == nil {
						t.Errorf("strict Count succeeded (%d) with shard %d dark", n, broken)
						continue
					}
					if !IsRetryable(err) {
						t.Errorf("strict Count error is not typed-retryable: %v", err)
					}
				} else {
					k := (w*itersPerWorker + i) % soakNumKeys
					if f.r.ShardFor(soakKey(k)) == broken {
						_, err := c.ProbeRange(soakKey(k), from, to)
						if err == nil {
							t.Errorf("strict probe of broken-shard key %s succeeded", soakKey(k))
						} else if !IsRetryable(err) {
							t.Errorf("strict broken-key probe error is not typed-retryable: %v", err)
						}
					} else {
						es, err := c.ProbeRange(soakKey(k), from, to)
						if err != nil {
							t.Errorf("strict probe of healthy key %s: %v", soakKey(k), err)
							continue
						}
						checkEntryIDs(t, fmt.Sprintf("strict probe %s", soakKey(k)), es, f.expectEntries(k, from, to))
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Phase 5: clear every fault and RECOVER. Recovery resets the
	// breaker, HEALTH reports what replayed, and full exact results
	// resume for everyone.
	f.wire.Clear()
	for _, st := range stores {
		st.ClearFaults()
	}
	admin := f.client(t, 31)
	rec, err := admin.Recover()
	if err != nil {
		t.Fatalf("RECOVER: %v", err)
	}
	var h telemetry.Health
	if err := admin.Info("health", &h); err != nil {
		t.Fatal(err)
	}
	if h.OpenBreakers != 0 {
		t.Fatalf("breaker still open after Recover: %+v", h)
	}
	if h.ReplayedShards != len(rec.ShardsReplayed) {
		t.Errorf("INFO health replayedShards=%d, RECOVER reported %v", h.ReplayedShards, rec.ShardsReplayed)
	}
	n, err = admin.Count(0, 0)
	if err != nil {
		t.Fatalf("Count after Recover: %v", err)
	}
	if n != 6*soakNumKeys {
		t.Fatalf("post-recover Count = %d, want %d", n, 6*soakNumKeys)
	}
	partial := f.client(t, 37)
	if err := partial.Partial(true); err != nil {
		t.Fatal(err)
	}
	n, err = partial.Count(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6*soakNumKeys || len(partial.Degraded()) != 0 {
		t.Fatalf("partial client after Recover: count=%d degraded=%+v", n, partial.Degraded())
	}
	for _, k := range brokenKeys {
		es, err := admin.ProbeRange(soakKey(k), from, to)
		if err != nil {
			t.Fatalf("post-recover probe %s: %v", soakKey(k), err)
		}
		checkEntryIDs(t, fmt.Sprintf("post-recover probe %s", soakKey(k)), es, f.expectEntries(k, from, to))
	}
}

// ensureConnForTest lets the soak confirm the loader can (re)connect
// after the wire fault plan is cleared.
func (c *Client) ensureConnForTest(t *testing.T) bool {
	t.Helper()
	return c.ensureConn() == nil
}
