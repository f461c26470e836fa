// Example aggregate demonstrates cross-process sketch aggregation: several
// sketchd daemons ingest disjoint slices of a stream, and because sketches
// are linear maps, merging their binary snapshots reconstructs — exactly —
// the sketch a single process would have built from the whole stream.
//
// Run with no flags for a self-contained demo: two daemons are started
// in-process on loopback ports, each ingests half of a Zipf stream over HTTP
// from -pushers concurrent connections (exercising the daemons' lock-free
// producer lanes) — daemon A over persistent streaming connections (framed
// SKB3 over POST /v1/stream, one pinned producer lane per pusher), daemon B
// over classic per-chunk POSTs, proving the two ingest paths interchange.
// Daemon A merges daemon B's snapshot, and every estimate is checked against
// a reference built through a multi-producer engine — the in-process twin of
// the same pipeline. Linearity makes every layer of this exact, so the max
// deviation must be 0.
//
// The same binary also drives real multi-process topologies built from
// cmd/sketchd:
//
//	terminal 1:  sketchd -addr 127.0.0.1:7601
//	terminal 2:  sketchd -addr 127.0.0.1:7602
//	terminal 3:  aggregate -push http://127.0.0.1:7601 -n 50000 -half 0
//	             aggregate -push http://127.0.0.1:7602 -n 50000 -half 1
//	             aggregate -merge http://127.0.0.1:7601,http://127.0.0.1:7602
//
// -push streams half of a deterministic Zipf workload into the daemon,
// chunked across -pushers concurrent connections; -transport picks how
// (stream = persistent framed connections, the default; post = one
// /v1/update POST per chunk), and -stream-addr targets a daemon's raw TCP
// streaming listener (sketchd -stream-addr) instead of tunnelling frames
// through its HTTP port. -merge folds the second daemon's snapshot into the
// first and prints the merged top-k.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

const (
	width = 2048
	depth = 4
	topK  = 32
)

func main() {
	var (
		push    = flag.String("push", "", "stream updates to this sketchd base URL")
		merge   = flag.String("merge", "", "comma-separated base URLs: merge the others' snapshots into the first")
		n       = flag.Int("n", 50_000, "stream length for -push and the demo")
		seed    = flag.Uint64("seed", 42, "stream seed (shared by all pushers so halves are disjoint slices of one stream)")
		half    = flag.Int("half", 0, "with -push: which half of the stream to send (0 or 1)")
		pushers = flag.Int("pushers", 4, "concurrent connections for -push and the demo")
		trans   = flag.String("transport", "stream", "how -push ships updates: stream (persistent framed connections) or post (one /v1/update POST per chunk)")
		strAddr = flag.String("stream-addr", "", "with -push -transport stream: the daemon's raw TCP streaming address (default: frames tunnel through POST /v1/stream on the -push URL)")
	)
	flag.Parse()
	if *pushers < 1 {
		*pushers = 1
	}
	if *trans != "stream" && *trans != "post" {
		log.Fatalf("aggregate: -transport must be stream or post, got %q", *trans)
	}

	switch {
	case *push != "":
		items, deltas := streamHalf(*seed, *n, *half)
		client := server.NewClient(*push, nil)
		streamTarget := ""
		if *trans == "stream" {
			streamTarget = *push
			if *strAddr != "" {
				streamTarget = *strAddr
			}
		}
		pushConcurrently(client, streamTarget, items, deltas, *pushers, nil)
		fmt.Printf("pushed %d updates (half %d of %d) to %s over %d concurrent %s connections\n",
			len(items), *half, *n, *push, *pushers, *trans)

	case *merge != "":
		urls := strings.Split(*merge, ",")
		if len(urls) < 2 {
			log.Fatal("aggregate: -merge needs at least two comma-separated URLs")
		}
		ctx := context.Background()
		dst := server.NewClient(urls[0], nil)
		for _, peer := range urls[1:] {
			snap, err := server.NewClient(peer, nil).Snapshot(ctx)
			if err != nil {
				log.Fatal(err)
			}
			if err := dst.Merge(ctx, snap); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("merged %d snapshot bytes from %s into %s\n", len(snap), peer, urls[0])
		}
		ranked, err := dst.TopK(ctx, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("merged top-10:")
		for _, ic := range ranked {
			fmt.Printf("  item %-12d %d\n", ic.Item, ic.Count)
		}

	default:
		demo(*seed, *n, *pushers)
	}
}

// pushConcurrently splits the key/delta columns across `pushers` goroutines
// so ingestion genuinely overlaps on the daemon's producer lanes. With a
// non-empty streamTarget each pusher holds one persistent streaming
// connection (its own session, its own pinned lane on the daemon) and ships
// its whole slice as framed batches; otherwise each pusher POSTs its slice
// in per-chunk /v1/update requests. Updates stay in column form from here to
// the daemon's counters either way. When refEng is non-nil, each pusher also
// feeds its columns through a private engine producer handle — building the
// in-process reference with exactly the pipeline the daemons use.
func pushConcurrently(client *server.Client, streamTarget string, items []uint64, deltas []float64, pushers int, refEng *engine.Engine[*sketch.HeavyHitterTracker]) {
	const chunk = 2048
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < pushers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ownItems := make([]uint64, 0, len(items)/pushers+1)
			ownDeltas := make([]float64, 0, len(items)/pushers+1)
			for i := w; i < len(items); i += pushers {
				ownItems = append(ownItems, items[i])
				ownDeltas = append(ownDeltas, deltas[i])
			}
			if refEng != nil {
				p := refEng.Producer()
				p.UpdateColumns(ownItems, ownDeltas)
				p.Close()
			}
			if streamTarget != "" {
				su, err := server.DialStream(streamTarget, server.StreamConfig{BatchSize: chunk})
				if err != nil {
					log.Fatal(err)
				}
				if err := su.UpdateColumns(ownItems, ownDeltas); err != nil {
					log.Fatal(err)
				}
				// Close syncs: every frame is acked as applied before we
				// report this pusher done.
				if err := su.Close(); err != nil {
					log.Fatal(err)
				}
				return
			}
			for start := 0; start < len(ownItems); start += chunk {
				end := min(start+chunk, len(ownItems))
				if err := client.UpdateColumns(ctx, ownItems[start:end], ownDeltas[start:end]); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// demo runs the whole producer→aggregator topology in one process, over real
// HTTP on loopback with concurrent pushers, and verifies exactness against a
// reference built through a multi-producer engine.
func demo(seed uint64, n, pushers int) {
	ctx := context.Background()

	// Two daemons sharing hash seed and dimensions — the merge precondition.
	cfg := server.Config{Width: width, Depth: depth, K: topK, Seed: 7}
	addrA, closeA := startDaemon(cfg)
	addrB, closeB := startDaemon(cfg)
	defer closeA()
	defer closeB()
	clientA := server.NewClient("http://"+addrA, nil)
	clientB := server.NewClient("http://"+addrB, nil)

	// Each daemon ingests its half of the stream over HTTP from concurrent
	// pushers — daemon A through persistent streaming connections (frames
	// tunnelled over POST /v1/stream), daemon B through per-chunk POSTs, so
	// the demo proves the two ingest paths land identical counters. The
	// reference engine (same hash seed) ingests everything in-process through
	// producer handles. Its Close-time merge equals the single-threaded
	// sketch counter for counter, so it is a valid oracle.
	refEng := engine.NewTracker(engine.Config{},
		sketch.NewHeavyHitterTracker(xrand.New(7), width, depth, topK))
	for halfIdx := 0; halfIdx <= 1; halfIdx++ {
		client, streamTarget := clientA, "http://"+addrA
		if halfIdx == 1 {
			client, streamTarget = clientB, ""
		}
		items, deltas := streamHalf(seed, n, halfIdx)
		pushConcurrently(client, streamTarget, items, deltas, pushers, refEng)
	}
	reference, err := refEng.Close()
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate: A pulls B's snapshot and folds it in.
	snap, err := clientB.Snapshot(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := clientA.Merge(ctx, snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon A merged %d snapshot bytes from daemon B\n", len(snap))

	// Exactness check: every estimate from the merged daemon must equal the
	// reference's, and the top-k must agree.
	maxDev := 0.0
	items := make([]uint64, 0, 256)
	for item := uint64(0); item < 1<<20; item += 1<<12 + 7 {
		items = append(items, item)
	}
	for _, ic := range reference.TopK() {
		items = append(items, ic.Item)
	}
	estimates, err := clientA.Query(ctx, items...)
	if err != nil {
		log.Fatal(err)
	}
	for i, item := range items {
		maxDev = math.Max(maxDev, math.Abs(estimates[i]-reference.Estimate(item)))
	}

	fmt.Printf("checked %d point queries against the single-process reference\n", len(items))
	fmt.Printf("max deviation: %g (linearity says this must be exactly 0)\n", maxDev)
	ranked, err := clientA.TopK(ctx, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merged top-5:")
	for _, ic := range ranked {
		fmt.Printf("  item %-12d estimate %d (exact-from-reference %d)\n",
			ic.Item, ic.Count, int64(reference.Estimate(ic.Item)+0.5))
	}
	if maxDev != 0 {
		log.Fatal("aggregate: merged estimates deviate from the reference — linearity violated")
	}
}

// startDaemon serves a server.Server on a fresh loopback port.
func startDaemon(cfg server.Config) (addr string, closeFn func()) {
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return ln.Addr().String(), func() {
		hs.Close()
		srv.Close()
	}
}

// streamHalf deterministically generates the full Zipf stream and returns
// the requested half as key/delta columns, so independent processes sharing
// -seed and -n split the work without coordinating.
func streamHalf(seed uint64, n, half int) ([]uint64, []float64) {
	s := stream.Zipf(xrand.New(seed), 1<<20, n, 1.1)
	items := make([]uint64, 0, n/2+1)
	deltas := make([]float64, 0, n/2+1)
	for i, u := range s.Updates {
		if i%2 == half {
			items = append(items, u.Item)
			deltas = append(deltas, float64(u.Delta))
		}
	}
	return items, deltas
}
