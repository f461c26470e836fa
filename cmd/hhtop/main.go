// Command hhtop reports the heavy hitters of a stream of items using a
// Count-Min-backed tracker, and (optionally) compares the sketch's answers
// against exact counts.
//
// Items are read one per line from stdin or from -file; each line is hashed
// to a 64-bit identifier, so any tokens (IP addresses, URLs, words) work.
// With -synthetic N a Zipf-distributed synthetic stream of N items is used
// instead, which makes the command usable as a demo without any input data.
//
// With -workers N the stream runs through the sharded engine: N worker
// goroutines each feed a private replica of the sketch (identical hash
// seeds), and — for synthetic streams — N concurrent producer handles push
// disjoint slices of the stream with no shared locks (file/stdin input uses
// one handle on the reading goroutine). The replicas are merged at the end.
// The Count-Min counters merge exactly (linearity), so every reported
// estimate equals the single-threaded run's; the candidate set is the union
// of the shards' top-k re-scored against the merged counters, which can in
// principle track a slightly different borderline item than the
// single-threaded heap would.
//
// With -push URL the command stops sketching locally and instead streams its
// items into a running sketchd over one persistent connection (framed SKB3
// batches with acks, POST /v1/stream; add -stream-addr to use the daemon's
// raw TCP streaming listener instead). The heavy hitters are then queried
// back from the daemon, so hhtop doubles as a feeder and as a terminal view
// onto a live fleet.
//
// Usage:
//
//	hhtop -phi 0.001 < access.log
//	hhtop -synthetic 1000000 -k 20 -width 4096 -workers 4
//	hhtop -synthetic 1000000 -push http://127.0.0.1:7600 -stream-addr 127.0.0.1:7700
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func main() {
	var (
		k         = flag.Int("k", 20, "number of top items to report")
		phi       = flag.Float64("phi", 0.001, "heavy-hitter threshold as a fraction of the stream length")
		width     = flag.Int("width", 4096, "Count-Min width (counters per row)")
		depth     = flag.Int("depth", 4, "Count-Min depth (rows)")
		file      = flag.String("file", "", "read items from this file instead of stdin")
		synthetic = flag.Int("synthetic", 0, "generate a synthetic Zipf stream of this many items instead of reading input")
		seed      = flag.Uint64("seed", 1, "seed for hashing and synthetic data")
		exact     = flag.Bool("exact", true, "also keep exact counts and report the sketch estimation error")
		workers   = flag.Int("workers", 1, "shard ingestion across this many goroutines (merged exactly at the end)")
		push      = flag.String("push", "", "stream items into the sketchd at this HTTP base URL instead of sketching locally; heavy hitters are queried back from the daemon")
		streamTCP = flag.String("stream-addr", "", "with -push: the daemon's raw TCP streaming address (default: stream through POST /v1/stream on the -push URL)")
		report    = flag.Int("report", 0, "with -push: print an interim top-k report every this many streamed items, re-scored from the daemon in one batch query round-trip (0 disables)")
	)
	flag.Parse()

	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "hhtop: -workers must be >= 1")
		os.Exit(1)
	}
	if *streamTCP != "" && *push == "" {
		fmt.Fprintln(os.Stderr, "hhtop: -stream-addr requires -push (queries go to the HTTP URL)")
		os.Exit(1)
	}
	if *report > 0 && *push == "" {
		fmt.Fprintln(os.Stderr, "hhtop: -report requires -push (interim reports query the daemon)")
		os.Exit(1)
	}

	r := xrand.New(*seed)
	tracker := sketch.NewHeavyHitterTracker(r, *width, *depth, *k)

	// Push mode: one persistent stream connection pins one producer lane on
	// the daemon; local -workers sharding is moot because the sketch lives
	// remotely.
	var su *server.StreamUpdater
	var cli *server.Client
	if *push != "" {
		base := *push
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		cli = server.NewClient(base, nil)
		target := base
		if *streamTCP != "" {
			target = *streamTCP
		}
		var err error
		if su, err = server.DialStream(target, server.StreamConfig{}); err != nil {
			fmt.Fprintf(os.Stderr, "hhtop: dialing stream: %v\n", err)
			os.Exit(1)
		}
	}

	var eng *engine.Engine[*sketch.HeavyHitterTracker]
	if *workers > 1 && su == nil {
		eng = engine.NewTracker(engine.Config{Workers: *workers}, tracker)
	}
	var exactCounter *stream.ExactCounter
	if *exact {
		exactCounter = stream.NewExactCounter()
	}
	names := map[uint64]string{}

	// The read side of push mode: candidate items come back from /v1/topk and
	// are re-scored through ONE batch query round-trip — the querier retains
	// its encode/decode buffers across reports, so a long stream with frequent
	// -report intervals costs one request and no fresh buffers per report,
	// instead of a per-key /v1/query loop.
	var bq *server.BatchQuerier
	var reportKeys []uint64
	if cli != nil {
		bq = cli.BatchQuerier()
	}
	interimReport := func(streamed int) {
		ctx := context.Background()
		cands, err := cli.TopK(ctx, *k)
		if err != nil || len(cands) == 0 {
			return
		}
		reportKeys = reportKeys[:0]
		for _, ic := range cands {
			reportKeys = append(reportKeys, ic.Item)
		}
		ests, gen, err := bq.Query(ctx, reportKeys)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhtop: interim batch query: %v\n", err)
			return
		}
		show := len(ests)
		if show > 5 {
			show = 5
		}
		line := fmt.Sprintf("hhtop: %d items streamed, top %d at gen %d:", streamed, show, gen)
		for i := 0; i < show; i++ {
			label := names[reportKeys[i]]
			if label == "" {
				label = fmt.Sprintf("item-%d", reportKeys[i])
			}
			line += fmt.Sprintf(" %s=%.0f", truncate(label, 16), ests[i])
		}
		fmt.Fprintln(os.Stderr, line)
	}

	// For file/stdin input the reading goroutine owns one producer handle;
	// synthetic streams below fan across -workers handles instead. Either
	// way items are buffered into key/delta columns and ingested through
	// UpdateBatch/UpdateColumns — the batch-first hot path — rather than one
	// Update call per line.
	var prod *engine.Producer[*sketch.HeavyHitterTracker]
	if eng != nil {
		prod = eng.Producer()
	}
	const ingestChunk = 4096
	batchItems := make([]uint64, 0, ingestChunk)
	batchDeltas := make([]float64, 0, ingestChunk)
	streamed, sinceReport := 0, 0
	flush := func() {
		if len(batchItems) == 0 {
			return
		}
		switch {
		case su != nil:
			if err := su.UpdateColumns(batchItems, batchDeltas); err != nil {
				fmt.Fprintf(os.Stderr, "hhtop: streaming batch: %v\n", err)
				os.Exit(1)
			}
			streamed += len(batchItems)
			sinceReport += len(batchItems)
			if *report > 0 && sinceReport >= *report {
				sinceReport = 0
				interimReport(streamed)
			}
		case prod != nil:
			prod.UpdateColumns(batchItems, batchDeltas)
		default:
			tracker.UpdateBatch(batchItems, batchDeltas)
		}
		if exactCounter != nil {
			for _, id := range batchItems {
				exactCounter.Update(id, 1)
			}
		}
		batchItems = batchItems[:0]
		batchDeltas = batchDeltas[:0]
	}
	process := func(id uint64, label string) {
		batchItems = append(batchItems, id)
		batchDeltas = append(batchDeltas, 1)
		if len(batchItems) >= ingestChunk {
			flush()
		}
		if label != "" {
			names[id] = label
		}
	}

	total := 0
	if *synthetic > 0 {
		s := stream.Zipf(r, 1<<20, *synthetic, 1.1)
		if eng != nil {
			// Concurrent producers: each goroutine takes its own handle,
			// gathers its disjoint slice into columns, and ships them through
			// UpdateColumns — no locks anywhere on the path, and the merge is
			// still exact.
			var wg sync.WaitGroup
			for pid := 0; pid < *workers; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					p := eng.Producer()
					defer p.Close()
					// Stride the worker's disjoint slice directly into one
					// chunk-sized column pair, reused across chunks — constant
					// memory however long the stream (UpdateColumns copies,
					// so reuse is safe).
					chunk := make([]uint64, 0, ingestChunk)
					ones := make([]float64, ingestChunk)
					for i := range ones {
						ones[i] = 1
					}
					for i := pid; i < len(s.Updates); i += *workers {
						chunk = append(chunk, s.Updates[i].Item)
						if len(chunk) == ingestChunk {
							p.UpdateColumns(chunk, ones)
							chunk = chunk[:0]
						}
					}
					p.UpdateColumns(chunk, ones[:len(chunk)])
				}(pid)
			}
			wg.Wait()
			if exactCounter != nil {
				for _, u := range s.Updates {
					exactCounter.Update(u.Item, 1)
				}
			}
			total = len(s.Updates)
		} else {
			for _, u := range s.Updates {
				process(u.Item, "")
				total++
			}
		}
	} else {
		var in io.Reader = os.Stdin
		if *file != "" {
			f, err := os.Open(*file)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hhtop: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			in = f
		}
		scanner := bufio.NewScanner(in)
		scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
		for scanner.Scan() {
			line := scanner.Text()
			if line == "" {
				continue
			}
			process(hashToken(line), line)
			total++
		}
		if err := scanner.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "hhtop: reading input: %v\n", err)
			os.Exit(1)
		}
	}

	flush() // drain the partially filled ingest columns
	if eng != nil {
		prod.Close() // flush the reader-side handle; Close waits for it
		merged, err := eng.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhtop: merging shards: %v\n", err)
			os.Exit(1)
		}
		tracker = merged
	}

	var hits []stream.ItemCount
	if su != nil {
		// Close syncs: it returns only after the daemon acked every frame as
		// applied, so the query below always sees all our items.
		if err := su.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hhtop: draining stream: %v\n", err)
			os.Exit(1)
		}
		var err error
		if hits, err = cli.HeavyHitters(context.Background(), *phi); err != nil {
			fmt.Fprintf(os.Stderr, "hhtop: querying daemon: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("streamed %d items to %s (session %s)\n", total, *push, su.Session())
		// Re-score the hit set in one batch round-trip, so every printed
		// estimate comes from a single pinned read generation rather than
		// one /v1/query per item.
		if len(hits) > 0 {
			reportKeys = reportKeys[:0]
			for _, ic := range hits {
				reportKeys = append(reportKeys, ic.Item)
			}
			ests, gen, err := bq.Query(context.Background(), reportKeys)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hhtop: batch re-score: %v\n", err)
				os.Exit(1)
			}
			for i := range hits {
				hits[i].Count = int64(ests[i] + 0.5)
			}
			fmt.Printf("%d heavy hitters re-scored in one batch read at generation %d\n", len(hits), gen)
		}
	} else {
		hits = tracker.HeavyHitters(*phi)
		fmt.Printf("processed %d items; sketch uses %d counters (%d KiB)\n",
			total, tracker.SpaceCounters(), tracker.CounterBytes()/1024)
	}
	fmt.Printf("items with estimated frequency >= %.4f of the stream:\n\n", *phi)
	fmt.Printf("%-24s %12s", "item", "estimate")
	if exactCounter != nil {
		fmt.Printf(" %12s %10s", "exact", "overest")
	}
	fmt.Println()
	for _, ic := range hits {
		label := names[ic.Item]
		if label == "" {
			label = fmt.Sprintf("item-%d", ic.Item)
		}
		fmt.Printf("%-24s %12d", truncate(label, 24), ic.Count)
		if exactCounter != nil {
			truth := exactCounter.Count(ic.Item)
			fmt.Printf(" %12d %9.2f%%", truth, 100*float64(ic.Count-truth)/float64(max64(truth, 1)))
		}
		fmt.Println()
	}
}

// hashToken maps an arbitrary string to a 64-bit item identifier (FNV-1a).
func hashToken(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
