// Command sketchd is an HTTP sketch-ingestion daemon: it owns a concurrent
// sharded heavy-hitter engine (internal/engine over a Count-Min sketch) and
// serves batched updates, point queries, top-k reports, and binary snapshots
// that merge exactly across process boundaries. Update handlers ingest
// concurrently across -producers engine handles — there is no global lock on
// the write path, and linearity keeps the merged counters exact regardless
// of how requests interleave.
//
// Because sketches are linear, a fleet of sketchd processes started with the
// same -seed, -width and -depth can each ingest a slice of the stream and
// reconcile exactly. Two mechanisms exist. Pull: ship /v1/snapshot bytes
// into a peer's /v1/merge for a one-shot full-state fold-in (bootstrap, ad
// hoc aggregation). Push: start every daemon with -peers naming the others
// and they gossip continuously — each daemon ships the *difference* between
// its current state and the last state each peer acknowledged (a valid
// sketch in its own right, mostly zero counters, shipped compressed) to
// /v1/delta every -gossip-every, and a per-sender generation watermark
// makes retries and reordering safe, so the whole mesh converges to exactly
// the sketch one process would have built. With -snapshot-dir the daemon
// also ships its state to disk (periodically with -snapshot-every, and on
// shutdown), and recovers it bit-identically on restart. See
// docs/CLUSTER.md for the operator guide.
//
// Usage:
//
//	sketchd -addr :7600 -width 4096 -depth 4 -k 64
//	sketchd -addr :7600 -stream-addr :7700   # raw TCP streaming ingest listener
//	sketchd -addr 127.0.0.1:7601 -snapshot-dir /var/lib/sketchd -snapshot-every 30s
//	sketchd -addr 127.0.0.1:7602 -peers 127.0.0.1:7601,127.0.0.1:7603 -gossip-every 1s
//	sketchd -addr :7600 -debug-addr 127.0.0.1:7699  # go tool pprof http://127.0.0.1:7699/debug/pprof/heap
//
// The daemon also serves the survey's recovery algorithms directly from its
// live counters: /v1/recover inverts the sketch with a configurable
// internal/cs recoverer (-recover-algos gates which ones, -recover-iters
// sets the default iteration budget), /v1/setquery answers calibrated
// estimates over a caller-supplied candidate support, and /v1/spectrum runs
// the sparse Fourier transform of internal/sfft over a posted signal. See
// docs/API.md for the full endpoint reference.
//
// API (see internal/server and docs/API.md):
//
//	POST /v1/update    {"updates":[{"item":7,"delta":2}]} or a binary batch
//	POST /v1/stream    persistent-connection framed ingest (also raw TCP via -stream-addr)
//	GET  /v1/query     ?item=7&item=8
//	GET  /v1/topk      ?k=10 or ?phi=0.001
//	GET  /v1/recover   ?algo=smp&k=16&universe=65536 (also POST with a JSON body)
//	POST /v1/setquery  {"support":[7,8,9]} calibrated estimates over a support set
//	POST /v1/spectrum  {"signal":[...], "k":4} sparse Fourier support
//	GET  /v1/snapshot  versioned binary sketch encoding
//	POST /v1/merge     a peer's snapshot bytes
//	POST /v1/delta     a gossip replication frame (sent by peers' replicators)
//	GET  /v1/stats     counters, sketch shape, per-peer replication lag
//	GET  /v1/healthz
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7600", "listen address (host:port; port 0 picks a free port)")
		streamAddr    = flag.String("stream-addr", "", "raw TCP listen address for persistent-connection streaming ingest (empty = HTTP only; POST /v1/stream always works)")
		width         = flag.Int("width", 4096, "Count-Min width (counters per row)")
		depth         = flag.Int("depth", 4, "Count-Min depth (rows)")
		k             = flag.Int("k", 64, "heavy-hitter candidate capacity")
		seed          = flag.Uint64("seed", 1, "hash seed; daemons that merge snapshots must share it")
		workers       = flag.Int("workers", 0, "ingestion shard goroutines (0 = GOMAXPROCS)")
		partition     = flag.Bool("partition", false, "key-partitioned engine mode: workers share one column-partitioned sketch (1x memory) instead of a full clone each (up to workers x memory); reads are bit-identical either way")
		producers     = flag.Int("producers", 0, "parallel ingestion lanes for /v1/update handlers (0 = GOMAXPROCS)")
		snapshotDir   = flag.String("snapshot-dir", "", "directory for snapshot shipping and startup recovery")
		snapshotEvery = flag.Duration("snapshot-every", 0, "period of background snapshots to -snapshot-dir (0 = only on shutdown)")
		maxBody       = flag.Int64("max-body", 0, "request body cap in bytes (0 = 8 MiB)")
		peers         = flag.String("peers", "", "comma-separated peer base URLs (host:port or http://host:port) to gossip deltas to; list every other daemon in the mesh")
		gossipEvery   = flag.Duration("gossip-every", 0, "period of delta shipping to -peers (0 = 1s when -peers is set)")
		gossipBackoff = flag.Duration("gossip-backoff-max", 0, "cap on the per-peer exponential retry backoff after transport failures (0 = 30s)")
		bootFrom      = flag.String("bootstrap-from", "", "comma-separated peer base URLs to fetch a barrier-consistent state transfer from on a cold start (the literal word \"peers\" copies -peers); the daemon serves 503 until the transfer lands")
		bootAttempts  = flag.Int("bootstrap-attempts", 0, "rounds through the -bootstrap-from list before degrading to serving empty (0 = 3)")
		bootRetry     = flag.Duration("bootstrap-retry", 0, "wait between bootstrap rounds (0 = 2s)")
		nodeID        = flag.String("node-id", "", "stable unique id for this daemon in gossip frames (default: the bound listen address)")
		recoverAlgos  = flag.String("recover-algos", "", "comma-separated recovery algorithms /v1/recover may run (subset of sketch,smp,omp,iht,ista; empty = all, first is the default)")
		recoverUni    = flag.Int("recover-universe", 0, "default signal dimension /v1/recover inverts over (0 = 65536)")
		recoverMaxK   = flag.Int("recover-max-k", 0, "cap on /v1/recover's ?k= (0 = 256)")
		recoverIters  = flag.Int("recover-iters", 0, "default iteration budget of the iterative recoverers (0 = 50)")
		debugAddr     = flag.String("debug-addr", "", "listen address for net/http/pprof's /debug/pprof/ profiles, kept off the data port (empty = no profiles)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "sketchd: ", log.LstdFlags)

	// Listen before building the server so the bound address (port 0
	// resolves here) can double as the default gossip node id.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	if *nodeID == "" {
		*nodeID = ln.Addr().String()
	}
	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	var bootList []string
	switch {
	case *bootFrom == "peers":
		bootList = append(bootList, peerList...)
	case *bootFrom != "":
		bootList = strings.Split(*bootFrom, ",")
	}
	var algoList []string
	if *recoverAlgos != "" {
		for _, a := range strings.Split(*recoverAlgos, ",") {
			if a = strings.TrimSpace(a); a != "" {
				algoList = append(algoList, a)
			}
		}
	}

	srv, err := server.New(server.Config{
		Width:              *width,
		Depth:              *depth,
		K:                  *k,
		Seed:               *seed,
		Engine:             engine.Config{Workers: *workers, Partition: *partition},
		Producers:          *producers,
		SnapshotDir:        *snapshotDir,
		SnapshotEvery:      *snapshotEvery,
		MaxBodyBytes:       *maxBody,
		Peers:              peerList,
		GossipEvery:        *gossipEvery,
		GossipBackoffMax:   *gossipBackoff,
		BootstrapFrom:      bootList,
		BootstrapAttempts:  *bootAttempts,
		BootstrapRetryWait: *bootRetry,
		NodeID:             *nodeID,
		RecoverAlgos:       algoList,
		RecoverUniverse:    *recoverUni,
		RecoverMaxK:        *recoverMaxK,
		RecoverIters:       *recoverIters,
		Logf:               logger.Printf,
	})
	if err != nil {
		ln.Close()
		logger.Fatal(err)
	}

	// Print the bound address on stdout so scripts using port 0 can find it.
	fmt.Printf("listening on %s (countmin %dx%d, k=%d, seed=%d)\n",
		ln.Addr(), *width, *depth, *k, *seed)

	if *streamAddr != "" {
		sln, err := net.Listen("tcp", *streamAddr)
		if err != nil {
			srv.Close()
			logger.Fatal(err)
		}
		fmt.Printf("streaming on %s\n", sln.Addr())
		// srv.Close tears the listener down (ServeStream registers it), so
		// the accept loop needs no extra shutdown plumbing here.
		go func() {
			if err := srv.ServeStream(sln); err != nil {
				logger.Printf("stream serve: %v", err)
			}
		}()
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			srv.Close()
			logger.Fatal(err)
		}
		fmt.Printf("profiles on %s\n", dln.Addr())
		// The process exits with the data listener; this one needs no
		// shutdown of its own.
		go func() {
			if err := serveDebug(dln); err != nil {
				logger.Printf("debug serve: %v", err)
			}
		}()
	}

	// A client gets five seconds to finish its request header and an idle
	// keep-alive connection two minutes, so sockets that trickle or say
	// nothing cannot pile up on the listener. Bodies and responses are not
	// deadlined: /v1/stream stays open for as long as its client streams.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("received %v, shutting down", sig)
	case err := <-errc:
		logger.Printf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	// Close makes a final delta push to every -peers entry and ships the
	// final snapshot when -snapshot-dir is set.
	if err := srv.Close(); err != nil {
		logger.Fatalf("close: %v", err)
	}
}

// serveDebug serves net/http/pprof's profiles on ln from a mux of their own.
// The data port serves the server's handler alone — never
// http.DefaultServeMux, where importing net/http/pprof registers them too — so
// it answers /debug/pprof/ with 404.
func serveDebug(ln net.Listener) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return hs.Serve(ln)
}
