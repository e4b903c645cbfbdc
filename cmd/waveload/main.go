// Command waveload replays a synthetic Netnews scenario against a waved
// server: it ingests daily batches and issues a mixed probe workload,
// reporting throughput — a quick way to exercise a deployment end to end.
//
// Usage:
//
//	waved -window 7 -scheme REINDEX &
//	waveload -addr localhost:7070 -days 14 -articles 50 -probes 200
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"waveindex/internal/server"
	"waveindex/internal/workload"
	"waveindex/wave"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "waved server address")
	days := flag.Int("days", 14, "days to ingest")
	articles := flag.Int("articles", 50, "articles per day")
	probes := flag.Int("probes", 200, "probes to issue after ingestion")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	if err := run(*addr, *days, *articles, *probes, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(addr string, days, articles, probes int, seed int64) error {
	c, err := server.Dial(addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()

	gen := workload.NewNewsGenerator(workload.NewsConfig{
		Seed:            seed,
		ArticlesPerDay:  articles,
		WordsPerArticle: 15,
		VocabSize:       2000,
	})

	// Resume from wherever the server's window ends.
	_, to, ready, err := c.Window()
	if err != nil {
		return err
	}
	first := 1
	if ready || to > 0 {
		first = to + 1
	}

	start := time.Now()
	postings := 0
	for d := first; d < first+days; d++ {
		b := gen.Day(d)
		if err := c.AddDay(d, b.Postings); err != nil {
			return fmt.Errorf("ingest day %d: %w", d, err)
		}
		postings += b.NumPostings()
	}
	ingestDur := time.Since(start)
	fmt.Printf("ingested %d days (%d postings) in %v (%.0f postings/s)\n",
		days, postings, ingestDur.Round(time.Millisecond),
		float64(postings)/ingestDur.Seconds())

	start = time.Now()
	hits := 0
	vocab := gen.Vocab()
	for i := 0; i < probes; i++ {
		es, err := c.Probe(vocab.Word(i % 500))
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		hits += len(es)
	}
	probeDur := time.Since(start)
	fmt.Printf("issued %d probes in %v (%.0f probes/s, %d entries returned)\n",
		probes, probeDur.Round(time.Millisecond),
		float64(probes)/probeDur.Seconds(), hits)

	var st wave.Stats
	if err := c.Info("stats", &st); err != nil {
		return err
	}
	fmt.Printf("server: scheme=%s days=%d bytes=%d window=%d..%d\n",
		st.Scheme, st.DaysIndexed, st.ConstituentBytes, st.WindowFrom, st.WindowTo)
	return nil
}
