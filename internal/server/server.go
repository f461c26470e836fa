package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// SnapshotFileName is the recovery file inside Config.SnapshotDir: one SKP1
// frame (see bootstrap.go) that SaveSnapshot writes and New installs.
const SnapshotFileName = "sketchd.snap"

// unreadableSuffix names where New moves a recovery file it cannot install
// before it bootstraps from a peer instead.
const unreadableSuffix = ".unreadable"

// Config shapes a Server.
type Config struct {
	// Width and Depth size the backing Count-Min sketch; zero means 4096x4.
	Width, Depth int
	// K is the heavy-hitter candidate capacity; zero means 64.
	K int
	// Seed drives the hash functions. Daemons that intend to merge each
	// other's snapshots must share Seed, Width and Depth (the server rejects
	// incompatible snapshots at /v1/merge). Zero means 1.
	Seed uint64
	// Engine shapes the sharded ingestion underneath: workers, batch size
	// and the sharding mode (Engine.Partition trades replica mode's
	// workers x sketch-size memory for one column-partitioned copy with
	// bit-identical reads; see internal/engine and docs/CLUSTER.md).
	Engine engine.Config
	// Producers is the number of parallel ingestion lanes: engine producer
	// handles that /v1/update requests are spread across round-robin, so P
	// requests ingest concurrently instead of queueing on one lock. Zero
	// means GOMAXPROCS.
	Producers int
	// SnapshotDir, when non-empty, enables snapshot shipping: the server
	// writes its whole state — counters, gossip watermarks, sender trackers —
	// to SnapshotDir/sketchd.snap on Close and every SnapshotEvery in between,
	// as one SKP1 frame, fsynced and renamed into place, and installs it on
	// startup exactly as it would a peer's bootstrap transfer. Counters
	// recover bit-identically because the encoding carries the hash seeds and
	// exact IEEE-754 counter bits. A file that is present but cannot be
	// installed (torn, corrupt, from an older release) makes New fail, unless
	// BootstrapFrom is set.
	SnapshotDir string
	// SnapshotEvery is the period of the background snapshot writer; zero
	// disables periodic writes (startup recovery and the Close-time write
	// still happen when SnapshotDir is set).
	SnapshotEvery time.Duration
	// MaxBodyBytes caps request bodies; zero means 8 MiB.
	MaxBodyBytes int64
	// MaxFrameBytes caps the declared payload length of one streaming-ingest
	// frame (raw TCP via ServeStream or chunked POST /v1/stream) — the
	// streaming analogue of MaxBodyBytes, checked before any buffer grows so
	// a forged header cannot demand an outsized allocation. Zero means
	// MaxBodyBytes.
	MaxFrameBytes int64
	// StreamAckEvery is how many applied data frames a streaming connection
	// may accumulate before the server volunteers an ack (producers can also
	// request one per frame); zero means 64.
	StreamAckEvery int
	// Peers are the base URLs of the other daemons in a gossip mesh (e.g.
	// "http://10.0.0.2:7600"; a bare host:port gets http:// prepended). When
	// set, a replicator goroutine ships this daemon's locally ingested
	// updates to every peer as snapshot *deltas* every GossipEvery —
	// linearity makes the difference of two snapshots a valid sketch — and
	// a per-sender generation watermark on the receiving side makes
	// redelivery idempotent. Every daemon in the mesh must share Seed,
	// Width and Depth, and should list every other daemon (deltas carry
	// only locally ingested mass and are deliberately not relayed, which is
	// what makes a full mesh converge without double-counting).
	Peers []string
	// GossipEvery is the delta-shipping period; zero with Peers set means
	// one second. Ignored without Peers.
	GossipEvery time.Duration
	// BootstrapFrom lists peer base URLs to fetch a /v1/bootstrap state
	// transfer from when this daemon starts without recovering local state:
	// SnapshotDir is unset or holds no recovery file, or the file cannot be
	// installed (it is then logged and moved aside to sketchd.snap.unreadable).
	// Sources are tried in order with BootstrapRetryWait between rounds; until
	// one succeeds every endpoint except /v1/healthz and /v1/stats answers 503,
	// the replicator stays parked and nothing is saved to SnapshotDir, so the
	// node never serves, gossips or persists state it does not hold. Empty
	// disables peer bootstrap (the pre-existing behaviour: rejoin blank and
	// converge forward).
	BootstrapFrom []string
	// BootstrapAttempts is how many rounds over BootstrapFrom to try before
	// degrading to serving empty state; zero means 3.
	BootstrapAttempts int
	// BootstrapRetryWait is the pause between bootstrap rounds; zero means
	// two seconds.
	BootstrapRetryWait time.Duration
	// GossipBackoffMax caps the per-peer exponential retry backoff the
	// replicator applies to unreachable peers (the window starts at
	// GossipEvery and doubles per consecutive failure); zero means 30s.
	GossipBackoffMax time.Duration
	// NodeID names this daemon in the delta frames it sends — the key peers
	// keep their watermark under. It must be unique per daemon and stable
	// for the daemon's lifetime, and at most 256 bytes; empty means a
	// host-pid-sequence identifier.
	NodeID string
	// RecoverAlgos lists the sparse-recovery algorithms /v1/recover may run
	// (subset of sketch, omp, iht, ista, smp); empty enables all of them.
	// The first entry is the default when a request names no ?algo=.
	RecoverAlgos []string
	// RecoverUniverse is the default signal dimension n that /v1/recover
	// inverts the measurement over (recovered items are coordinates in
	// [0, n)); zero means 65536. Requests may override with ?universe= up to
	// MaxRecoverUniverse.
	RecoverUniverse int
	// RecoverMaxK caps the ?k= a single /v1/recover request may ask for;
	// zero means 256.
	RecoverMaxK int
	// RecoverIters is the default iteration budget of the iterative
	// recoverers (omp, iht, ista, smp); zero means 50. Requests may override
	// with ?iters=.
	RecoverIters int
	// Logf, when non-nil, receives one line per notable event (recovery,
	// snapshot writes, merge rejections, gossip resyncs).
	Logf func(format string, args ...interface{})
}

// recoverAlgoNames is the full recoverer menu, in default-preference order:
// sketch decoding first (one pass, no iteration), then the iterative and
// greedy algorithms.
var recoverAlgoNames = []string{"sketch", "smp", "omp", "iht", "ista"}

// MaxRecoverUniverse caps the per-request ?universe= override of
// /v1/recover: recovery is Θ(universe · depth) per pass, and the cap keeps a
// single request from demanding an unbounded decode.
const MaxRecoverUniverse = 1 << 22

// MaxSetQuerySupport caps the candidate support size of one /v1/setquery
// request.
const MaxSetQuerySupport = 4096

// MaxSpectrumLen caps the sample count of one /v1/spectrum request.
const MaxSpectrumLen = 1 << 20

func (c Config) withDefaults() Config {
	if c.Width <= 0 {
		c.Width = 4096
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.K <= 0 {
		c.K = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Producers <= 0 {
		c.Producers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = c.MaxBodyBytes
	}
	if c.StreamAckEvery <= 0 {
		c.StreamAckEvery = 64
	}
	if len(c.RecoverAlgos) == 0 {
		c.RecoverAlgos = recoverAlgoNames
	}
	if c.RecoverUniverse <= 0 {
		c.RecoverUniverse = 1 << 16
	}
	if c.RecoverMaxK <= 0 {
		c.RecoverMaxK = 256
	}
	if c.RecoverIters <= 0 {
		c.RecoverIters = 50
	}
	peers := make([]string, 0, len(c.Peers))
	for _, p := range c.Peers {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		peers = append(peers, strings.TrimRight(p, "/"))
	}
	c.Peers = peers
	if len(c.Peers) > 0 && c.GossipEvery <= 0 {
		c.GossipEvery = time.Second
	}
	sources := make([]string, 0, len(c.BootstrapFrom))
	for _, src := range c.BootstrapFrom {
		src = strings.TrimSpace(src)
		if src == "" {
			continue
		}
		if !strings.Contains(src, "://") {
			src = "http://" + src
		}
		sources = append(sources, strings.TrimRight(src, "/"))
	}
	c.BootstrapFrom = sources
	if c.BootstrapAttempts <= 0 {
		c.BootstrapAttempts = 3
	}
	if c.BootstrapRetryWait <= 0 {
		c.BootstrapRetryWait = 2 * time.Second
	}
	if c.GossipBackoffMax <= 0 {
		c.GossipBackoffMax = 30 * time.Second
	}
	if c.NodeID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "sketchd"
		}
		// The sequence number keeps in-process fleets (tests, examples)
		// distinct even though they share a hostname and pid.
		c.NodeID = fmt.Sprintf("%s-%d-%d", host, os.Getpid(), nodeSeq.Add(1))
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// nodeSeq disambiguates default node ids within one process.
var nodeSeq atomic.Int64

// ingestLane is one parallel ingestion path: an engine producer handle, the
// mutex that keeps a single lane's handle single-writer, and the lane's
// reusable key/delta decode columns. Requests pick a lane round-robin, so P
// lanes admit P concurrent /v1/update bodies and the only contention left is
// 1/P lane-local. A request body is decoded straight into the lane's columns
// (binary batches in one bounds-checked scan, no per-item structs) and the
// columns are handed to the producer whole, so the steady-state update path
// allocates nothing per request beyond what net/http itself does.
type ingestLane struct {
	mu     sync.Mutex
	p      *engine.Producer[*sketch.HeavyHitterTracker]
	items  []uint64  // reusable decode column, guarded by mu
	deltas []float64 // reusable decode column, guarded by mu
}

// Server owns a sharded sketch engine and exposes it over HTTP:
//
//	POST /v1/update    ingest a batch of (item, delta) updates
//	GET  /v1/query     point-query estimates (?item=..., repeatable)
//	GET  /v1/topk      ranked candidates (?k=...), or ?phi=... for heavy hitters
//	GET  /v1/recover   sparse recovery over the live counters (?algo=&k=&universe=)
//	POST /v1/setquery  calibrated estimates over a caller-supplied support set
//	POST /v1/spectrum  sparse Fourier support of a posted signal (internal/sfft)
//	GET  /v1/snapshot  the exact merged state, versioned binary encoding
//	POST /v1/merge     fold a peer's snapshot in (exact linear merge)
//	POST /v1/delta     fold a peer's gossip delta frame in (watermark-idempotent)
//	GET  /v1/stats     counters, sketch shape, per-peer replication lag
//	GET  /v1/healthz   liveness
//
// All failures share one JSON error envelope {"error": {"code", "message",
// "detail"}}, and every read response carries the write generation gen of
// the barrier snapshot that answered it.
//
// Ingestion is concurrent end to end: each /v1/update handler routes its
// batch through one of Config.Producers engine producer handles (round-robin
// lanes, each with a lane-local lock), so updates never serialize behind a
// global mutex — the linearity of the sketches makes any interleaving merge
// exactly. Queries are answered from a consistent barrier snapshot cached
// until the write generation moves; snapshot, merge and stats share one
// narrow barrier lock that the update hot path never touches.
type Server struct {
	cfg Config
	// proto is the counter-less prototype (sketch.Prototype): shape and hash
	// functions only. Replicas, foreign and the sender trackers are cloned from
	// it when they first receive mass, and it stands for the empty sketch where
	// one is only read — the baseline of a link nothing was acked on, the
	// tracker of a sender nothing was applied from. Nothing can be counted into
	// it (see checkInvariants).
	proto *sketch.HeavyHitterTracker
	mux   *http.ServeMux

	eng      *engine.Engine[*sketch.HeavyHitterTracker]
	lanes    []*ingestLane
	nextLane atomic.Uint64 // round-robin lane cursor

	// The read-side twins of the ingest lanes: reusable key/estimate columns
	// for POST /v1/query batch bodies, picked round-robin.
	readLanes    []*readLane
	nextReadLane atomic.Uint64

	// closed fences writes once Close has begun. Close sets it before
	// locking and retiring the lanes, so a write handler that wins a lane
	// lock afterwards observes it and answers 503 instead of touching a
	// retired handle.
	closed atomic.Bool

	// gen counts acknowledged writes (updates, merges, applied delta and
	// replace frames, an installed bootstrap transfer). The read epoch is
	// stamped with the value it covers, so read endpoints reuse one served
	// state until the state actually changes.
	gen atomic.Int64
	// localGen counts acknowledged *locally ingested* batches only — the
	// generation currency of the gossip protocol. Deltas ship the window
	// (fromGen, toGen] in these units; foreign mass (merges, applied
	// deltas) bumps gen but not localGen, which is why it is never gossiped
	// onward.
	localGen atomic.Int64

	// snapMu is the narrow barrier lock: it serializes engine barrier
	// operations (ReadSnapshot/Close) and guards every store to epoch, the
	// foreign sketch, the sender trackers and the watermark map. The
	// /v1/update hot path never takes it.
	snapMu    sync.Mutex
	engClosed bool // the engine is gone: snapshots (and so reads) fail too
	// cut is the engine's pinned cut as localCut last returned it, and cutGen
	// the engine generation it covers: what the engine keeps resident whether
	// or not anyone here still points at it. snapshotLocked reads them to
	// learn whether the pinned cut is still current without cutting a new
	// one, /v1/stats to tell which served and retained sketches are that
	// array and which are arrays of their own. Guarded by snapMu.
	cut    *sketch.HeavyHitterTracker
	cutGen uint64
	// epoch is the daemon's one cache of the served state (see readpath.go):
	// the sum engine cut + foreign stamped with the generation it covers,
	// shared by every reader — lock-free — and by every snapMu holder that
	// needs the sum, until a write bumps gen. Its snapshot is immutable and
	// is a sketch of its own only when both operands hold mass: otherwise it
	// *is* the operand that holds all of it, the engine's pinned cut or
	// foreign (see snapshotLocked). Stored under snapMu only. engRetired is
	// the atomic shadow of engClosed that fences the lock-free fast path
	// after Close.
	epoch      atomic.Pointer[readEpoch]
	engRetired atomic.Bool
	// Read-path counters: epoch hits answered without the barrier lock,
	// misses that rebuilt the epoch, batch queries served and total keys they
	// carried (mean batch size = batchKeys / batchQueries).
	epochHits, epochMisses  atomic.Int64
	batchQueries, batchKeys atomic.Int64
	// foreign is the only home of mass that was not ingested here: recovered
	// snapshots, /v1/merge bodies, applied /v1/delta payloads and bootstrap
	// transfers, all added by mergeForeign, which allocates it on the first
	// one. It is nil until then, and snapshotLocked and handleBootstrap serve
	// the engine's cut as it is. The engine holds the locally ingested
	// updates and nothing else, so the served state is engine cut + foreign
	// and the replicator ships the engine cut as it is — peers receive each
	// node's own mass exactly once, never a relayed copy of their own.
	//
	// While the engine has dispatched nothing, foreign is the whole sum and
	// snapshotLocked serves it as the read epoch's snapshot; foreignServed
	// records that readers may hold the current object, and mergeForeign then
	// writes to a copy instead. Both guarded by snapMu.
	//
	// While all of it came from one tracked sender, foreign *is* that sender's
	// tracker (see mergeForeign): one array where the sum and its one term
	// would otherwise be two equal ones. The first mass from anywhere else
	// gives foreign an array of its own, and from then on every window is
	// added twice — to foreign and to its sender's tracker — so the sum of
	// many senders is kept, not recomputed per read.
	foreign       *sketch.HeavyHitterTracker
	foreignServed bool
	// watermarks maps a sender's NodeID to the toGen of the newest delta
	// frame applied from it; the receiver-side half of the idempotency
	// protocol (see DeltaFrame in wire.go).
	watermarks map[string]uint64
	// senders maps a sender's NodeID to the cumulative sketch of every delta
	// applied from it — the subtraction baseline that makes replace frames
	// (lossless resync after a watermark divergence) exact. An entry exists
	// iff the tracker provably covers all of that sender's mass in the
	// counters; untracked (below) blocks creating entries for senders whose
	// mass may already sit unattributed in a recovered snapshot. A sender that
	// is tracked but has landed nothing yet maps to proto, and gets a tracker
	// of its own when its first window frame is applied — foreign itself, if
	// that is the first foreign mass. Guarded by snapMu, like watermarks.
	senders map[string]*sketch.HeavyHitterTracker
	// untracked is set when the counters contain foreign mass that cannot be
	// attributed per sender: an installed transfer or recovery file said so,
	// or carried a watermark without a tracker, or a tracker fell out of
	// sync. Replace frames are then refused (reset resync instead) for any
	// sender without a tracker.
	untracked bool
	// hearsay marks watermark entries installed from a bootstrap transfer
	// that no direct frame from the sender has confirmed yet (the recovery
	// file keeps them hearsay across a restart). A reset-to-0 from such a
	// sender is ambiguous — it restarted, or it simply never acked us on
	// this (virgin) link while our mark jumped via bootstrap —
	// and accepting it in the second case would double-count the sender's
	// mass already inside the bootstrap snapshot. So a reset-to-0 on a
	// hearsay mark is refused with the replace offer (exact either way the
	// numbering actually aligned), and the flag clears on the first directly
	// confirmed frame. Guarded by snapMu.
	hearsay map[string]bool
	// Bootstrap status for /v1/stats (guarded by snapMu except the atomics):
	// bootstrapping gates the API while a state transfer is pending.
	bootstrapping     atomic.Bool
	bootstrapFailures atomic.Int64
	bootstrapSource   string
	bootstrapDegraded bool
	wasBootstrapped   bool
	// maxDeltaInner caps the declared inner length of /v1/delta envelopes
	// (a small multiple of this daemon's own dense encoding size).
	maxDeltaInner int
	// deltaScratch pools the *[]byte buffers /v1/delta envelopes are expanded
	// into. A buffer is out of the pool only between the expansion and the
	// decode that copies the counters out of it.
	deltaScratch sync.Pool
	// bodyScratch pools the *[]byte buffers the /v1/update, POST /v1/query and
	// /v1/delta bodies are read into (see pooledBody).
	bodyScratch sync.Pool

	updates, batches, merges, snapshots            atomic.Int64
	deltasApplied, deltasDuplicate, deltasRejected atomic.Int64
	deltasReplaced                                 atomic.Int64

	// Streaming ingest registry (see stream.go): every live connection and
	// raw listener — aborted and awaited by Close so acked frames always
	// reach the final merge — plus the named sessions holding the
	// exactly-once resume watermarks. streamWG counts accept loops and
	// connection handlers.
	streamMu        sync.Mutex
	streamConns     map[*streamConn]struct{}
	streamListeners map[net.Listener]struct{}
	streamSessions  map[string]*streamSession
	streamWG        sync.WaitGroup
	streamsActive   atomic.Int64
	streamFrames    atomic.Int64

	// peerMu guards the replication fields of the peer states below (the
	// replicator goroutine mutates them, /v1/stats reads them).
	peerMu sync.Mutex
	peers  []*peerState
	// lastFrameLen is the size of the last delta frame encoded, which sizes
	// the next one's buffer. Only gossipPush touches it, and that runs on the
	// replicator goroutine and then, once that has exited, in Close.
	lastFrameLen int

	stop chan struct{}
	wg   sync.WaitGroup
}

// peerState is the sender-side replication state for one gossip peer: the
// last local snapshot the peer acknowledged (the subtraction baseline for
// the next delta), and — when an ack never arrived — the encoded frame to
// retry verbatim. All fields except url and client are guarded by
// Server.peerMu.
type peerState struct {
	url    string
	client *Client

	baseline     *sketch.HeavyHitterTracker // local state as of the last ack; read-only, shared between peers
	baseGen      int64                      // localGen the baseline was cut at
	pending      []byte                     // un-acked frame, retried verbatim
	pendingLocal *sketch.HeavyHitterTracker
	pendingGen   int64
	framesAcked  int64
	bytesShipped int64
	lastErr      string
	// behindSince is when a gossip tick first found the link behind the local
	// generation since its last rebase; zero while caught up.
	behindSince time.Time
	// Capped exponential retry backoff: after failStreak consecutive
	// transport failures the replicator skips this peer until nextAttempt
	// (the window starts at GossipEvery and doubles per failure up to
	// Config.GossipBackoffMax), so an unreachable peer costs one connection
	// attempt per window instead of one per tick.
	failStreak  int
	nextAttempt time.Time
}

// methodNotAllowed answers a JSON 405 envelope naming the allowed methods.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow)
	}
}

// New builds a Server, recovering state from SnapshotDir/sketchd.snap when
// configured and present, and starting the periodic snapshot writer when
// SnapshotEvery is set.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if !bootstrapIDOK(cfg.NodeID) {
		return nil, fmt.Errorf("server: NodeID is %d bytes, want at most %d", len(cfg.NodeID), bootstrapMaxIDLen)
	}
	for _, algo := range cfg.RecoverAlgos {
		if recovererFor(algo, 1) == nil {
			return nil, fmt.Errorf("server: unknown recovery algorithm %q in RecoverAlgos (known: %s)", algo, strings.Join(recoverAlgoNames, ", "))
		}
	}
	proto := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K).Prototype()
	s := &Server{
		cfg:             cfg,
		proto:           proto,
		eng:             engine.NewTracker(cfg.Engine, proto),
		watermarks:      make(map[string]uint64),
		senders:         make(map[string]*sketch.HeavyHitterTracker),
		hearsay:         make(map[string]bool),
		streamConns:     make(map[*streamConn]struct{}),
		streamListeners: make(map[net.Listener]struct{}),
		streamSessions:  make(map[string]*streamSession),
		stop:            make(chan struct{}),
	}
	// A compatible peer's dense delta encoding can never legitimately exceed
	// its own sketch's size (counters plus a full candidate set) — cap the
	// compressed envelope's declared inner length there, so a forged header
	// in a tiny /v1/delta body cannot demand an outsized allocation.
	if empty, err := proto.MarshalBinary(); err == nil {
		s.maxDeltaInner = 2 * (len(empty) + 8*cfg.K + 1024)
	}

	// One startup rule: no recovery file is a fresh start, a file that
	// installs is recovered, and any other file fails New — or, with sources
	// configured, is logged, moved aside to sketchd.snap.unreadable (so no
	// later save replaces it) and replaced by a peer bootstrap. Recovered
	// state is foreign to gossip, like any installed transfer: the peers alive
	// before the crash already hold it, so it is never re-shipped.
	recovered := false
	if cfg.SnapshotDir != "" {
		path := filepath.Join(cfg.SnapshotDir, SnapshotFileName)
		data, err := os.ReadFile(path)
		var p *BootstrapPayload
		if err == nil {
			p, err = DecodeBootstrapResponse(data, 0)
		}
		if err == nil {
			err = s.installBootstrap(p) // nothing else holds s yet
		}
		switch {
		case errors.Is(err, os.ErrNotExist):
			err = nil
		case err == nil:
			recovered = true
			cfg.Logf("server: recovered %d bytes of state from %s", len(data), path)
			err = s.checkInvariants(nil)
		case len(cfg.BootstrapFrom) > 0:
			cfg.Logf("server: cannot recover from %s (%v): moving it to %s and bootstrapping from peers instead", path, err, path+unreadableSuffix)
			err = os.Rename(path, path+unreadableSuffix)
		}
		if err != nil {
			s.eng.Close() // don't leak the worker goroutines
			return nil, fmt.Errorf("server: recovering from %s: %w", path, err)
		}
	}
	if len(cfg.BootstrapFrom) > 0 && !recovered {
		s.bootstrapping.Store(true)
		s.wasBootstrapped = true
	}

	for _, url := range cfg.Peers {
		s.peers = append(s.peers, &peerState{
			url:      url,
			client:   NewClient(url, &http.Client{Timeout: 10 * time.Second}),
			baseline: proto, // the empty baseline: only ever read
		})
	}

	// The ingestion lanes come after recovery so the error paths above can
	// still close the engine without waiting on open handles.
	s.lanes = make([]*ingestLane, cfg.Producers)
	for i := range s.lanes {
		s.lanes[i] = &ingestLane{p: s.eng.Producer()}
	}
	s.readLanes = make([]*readLane, cfg.Producers)
	for i := range s.readLanes {
		s.readLanes[i] = &readLane{}
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/update", s.handleUpdate)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/query", s.handleQueryBatch)
	s.mux.HandleFunc("GET /v1/topk", s.handleTopK)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/merge", s.handleMerge)
	s.mux.HandleFunc("POST /v1/delta", s.handleDelta)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/bootstrap", s.handleBootstrap)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/recover", s.handleRecover)
	s.mux.HandleFunc("POST /v1/recover", s.handleRecover)
	s.mux.HandleFunc("POST /v1/setquery", s.handleSetQuery)
	s.mux.HandleFunc("POST /v1/spectrum", s.handleSpectrum)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Bare-path fallbacks: a request with the wrong method would otherwise
	// get the mux's plain-text 405 — route it through the JSON envelope
	// instead (the method-qualified patterns above are more specific and
	// keep winning for matching methods). The catch-all "/v1/" does the same
	// for unknown paths.
	for path, allow := range map[string]string{
		"/v1/update":    "POST",
		"/v1/query":     "GET, POST",
		"/v1/topk":      "GET",
		"/v1/snapshot":  "GET",
		"/v1/merge":     "POST",
		"/v1/delta":     "POST",
		"/v1/stream":    "POST",
		"/v1/bootstrap": "GET",
		"/v1/recover":   "GET, POST",
		"/v1/setquery":  "POST",
		"/v1/spectrum":  "POST",
		"/v1/stats":     "GET",
		"/v1/healthz":   "GET",
	} {
		s.mux.HandleFunc(path, methodNotAllowed(allow))
	}
	s.mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "no such endpoint %s (see docs/API.md)", r.URL.Path)
	})

	if cfg.SnapshotDir != "" && cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	if len(s.peers) > 0 {
		s.wg.Add(1)
		go s.gossipLoop()
	}
	if s.bootstrapping.Load() {
		s.wg.Add(1)
		go s.bootstrapLoop()
	}
	return s, nil
}

// Handler returns the HTTP handler serving the API above. While a peer
// bootstrap is pending, every endpoint except /v1/healthz and /v1/stats
// answers 503 — the node must not serve reads it cannot answer correctly or
// accept writes it would interleave with the incoming state transfer.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.bootstrapping.Load() && bootstrapGated(r.URL.Path) {
			writeErrDetail(w, http.StatusServiceUnavailable, "bootstrap_pending",
				"bootstrap in progress: state transfer from peers is not complete yet")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Close stops the snapshot writer and the gossip replicator, retires the
// ingestion lanes, makes a final delta push to every gossip peer, ships a
// final snapshot when SnapshotDir is configured, and shuts the engine down.
// Writes are fenced off (503) before the final flushes, so every update the
// server has acknowledged reaches both the peers and the recovery file;
// reads keep working until the engine itself is gone.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return ErrServerClosed
	}
	close(s.stop)
	s.wg.Wait()

	// Drain the streaming connections first: abort their reads, wait for
	// every handler to close its pinned producer. Acks are only ever sent
	// after a frame's columns are flushed to the shard queues, so everything
	// a producer saw acknowledged is in the engine by the time the final
	// snapshot below is cut.
	s.drainStreams()

	// Retire the lanes. closed is already set, so a handler that acquires a
	// lane lock from here on answers 503 without touching the handle; a
	// handler that held the lock first finishes its flush before the handle
	// closes, so its acknowledged batch reaches the final snapshot.
	for _, lane := range s.lanes {
		lane.mu.Lock()
		lane.p.Close()
		lane.mu.Unlock()
	}

	// Final gossip flush: one last delta push per peer, so a graceful
	// shutdown hands every acknowledged local update to the mesh. Peers
	// that are down simply miss it (logged); their watermark makes the
	// frame safe to lose.
	if len(s.peers) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.gossipPush(ctx, true) // the last chance to flush: ignore backoff windows
		cancel()
	}

	// A node whose bootstrap is still pending holds no state, and saves none
	// (see snapshotLoop).
	var saveErr error
	if s.cfg.SnapshotDir != "" && !s.bootstrapping.Load() {
		_, saveErr = s.SaveSnapshot()
	}

	s.snapMu.Lock()
	s.engClosed = true
	s.engRetired.Store(true) // fences the lock-free epoch fast path too
	local, err := s.eng.Close()
	if err == nil {
		err = s.checkInvariants(local)
	}
	s.snapMu.Unlock()
	if err != nil && saveErr == nil {
		saveErr = err
	}
	return saveErr
}

// checkInvariants verifies what must hold of a daemon whenever it is looked
// at; Close reports a violation, which makes sketchd exit non-zero. local is
// the engine's cut of everything ingested here. The properties:
//
//   - proto — the prototype every replica was cloned from, and the empty
//     baseline every peer link starts from and resyncs to — is still empty.
//     It is shared and only ever read; a write through it would corrupt every
//     frame cut against it from then on, so it has no counters to write to.
//   - The sender trackers holding mass are distinct arrays, none of them
//     proto, and there are none while foreign is nil. Foreign is one of them
//     only while that one holds all the foreign mass: every other is proto.
//   - An epoch stamped with the current generation is, bit for bit, the
//     engine cut ⊕ foreign.
//   - Every hearsay mark is a watermark.
//
// Caller holds s.snapMu, with ingestion stopped. New also checks a recovered
// daemon before it starts, when local (unused while the engine has
// dispatched nothing) is nil.
func (s *Server) checkInvariants(local *sketch.HeavyHitterTracker) error {
	if n, mass := len(s.proto.Backing().CounterData()), s.proto.TotalMass(); n != 0 || mass != 0 {
		return fmt.Errorf("server: invariant violated: the shared empty baseline holds %d counters and total mass %v", n, mass)
	}
	held := make(map[*sketch.HeavyHitterTracker]bool, len(s.senders))
	for id, tr := range s.senders {
		switch {
		case tr == s.proto:
			continue
		case s.foreign == nil:
			return fmt.Errorf("server: invariant violated: sender %q's tracker holds mass while foreign holds none", id)
		case held[tr]:
			return fmt.Errorf("server: invariant violated: sender %q's tracker is another sender's too", id)
		}
		held[tr] = true
	}
	if held[s.foreign] && len(held) > 1 {
		return fmt.Errorf("server: invariant violated: foreign is one of %d trackers holding mass", len(held))
	}
	want := s.foreign
	switch {
	case s.eng.Generation() == 0:
	case want == nil:
		want = local
	default:
		var err error
		if want, err = s.plusForeign(local); err != nil {
			return err
		}
	}
	if ep := s.epoch.Load(); ep != nil && ep.gen == s.gen.Load() && want != nil && !sameBits(ep.snap, want) {
		return fmt.Errorf("server: invariant violated: the epoch served at generation %d is not the engine cut ⊕ foreign", ep.gen)
	}
	for id := range s.hearsay {
		if _, ok := s.watermarks[id]; !ok {
			return fmt.Errorf("server: invariant violated: sender %q has a hearsay mark but no watermark", id)
		}
	}
	return nil
}

// ErrServerClosed is returned by Close after the first call.
var ErrServerClosed = errors.New("server: closed")

// snapshotLoop ships a snapshot to disk every SnapshotEvery until Close.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SnapshotEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if s.bootstrapping.Load() {
				// No state yet: an empty file would make the next start
				// recover nothing instead of bootstrapping again.
				continue
			}
			if path, err := s.SaveSnapshot(); err != nil {
				s.cfg.Logf("server: periodic snapshot failed: %v", err)
			} else {
				s.cfg.Logf("server: snapshot shipped to %s", path)
			}
		}
	}
}

// SaveSnapshot writes this node's state to SnapshotDir/sketchd.snap as one
// SKP1 frame, cut under one barrier hold (see transferLocked), and returns
// the path written. The file replaces the previous one durably and
// atomically (see writeFileAtomic), so a crash at any point leaves one
// complete file or the other.
func (s *Server) SaveSnapshot() (string, error) {
	if s.cfg.SnapshotDir == "" {
		return "", errors.New("server: no snapshot directory configured")
	}
	s.snapMu.Lock()
	p, err := s.transferLocked(false)
	s.snapMu.Unlock()
	if err != nil {
		return "", err
	}
	data, err := AppendBootstrapResponse(nil, p)
	if err != nil {
		return "", err
	}
	s.snapshots.Add(1)
	if err := os.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		return "", err
	}
	if err := writeFileAtomic(s.cfg.SnapshotDir, SnapshotFileName, data); err != nil {
		return "", err
	}
	return filepath.Join(s.cfg.SnapshotDir, SnapshotFileName), nil
}

// writeFileAtomic replaces dir/name with data: a temp file is written and
// fsynced, renamed over name, and the directory fsynced so the rename itself
// is durable. A temp file a crash leaves behind is never read.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ingestColumns hands a lane's decoded columns to its producer and bumps the
// write generation. The caller holds lane.mu and has re-checked closed. This
// plus the decode is the whole /v1/update hot path: an atomic lane pick and
// one lane-local lock — never the barrier lock, never a global one.
func (s *Server) ingestColumns(lane *ingestLane) {
	lane.p.UpdateColumns(lane.items, lane.deltas)
	lane.p.Flush()
	s.gen.Add(1)
	s.localGen.Add(1) // local ingestion: this batch is ours to gossip
}

// localCut returns the engine's pinned, immutable cut of the locally ingested
// updates: one barrier and one clone per engine generation however many of
// the read path, the replicator and bootstrap ask, and no barrier at all while
// the engine has not moved. Nothing here may write to what it returns — the
// engine, concurrent readers and retained peer baselines share it. Callers
// hold s.snapMu and have checked engClosed.
func (s *Server) localCut() (*sketch.HeavyHitterTracker, error) {
	cut, gen, err := s.eng.ReadSnapshot()
	if err != nil {
		return nil, err
	}
	s.cut, s.cutGen = cut, gen
	return cut, nil
}

// snapshotLocked returns the current read epoch — the served state, engine
// cut + foreign, stamped with the write generation it covers — rebuilding and
// publishing it when a write has happened since. It is the one place the two
// are summed, and by linearity a sum with an empty operand is the other
// operand, so only a node holding both kinds of mass pays for a sketch of its
// own: with no foreign mass the engine's pinned cut is served as it is (the
// very object the replicator retains as a peer baseline), and while the
// engine has dispatched nothing foreign is. Callers must hold s.snapMu and
// must not write to the epoch's snapshot.
//
// An acknowledged write is never missing from what this returns. gen is
// loaded first; a local batch bumps the engine's write generation (dispatch)
// before ingestColumns bumps gen, so a batch counted in the stamp has already
// invalidated the engine's pinned cut and a barrier is cut behind it — and
// the same order means an engine still at generation 0 after the load holds
// none of the stamp's writes. Foreign writes bump gen under snapMu, which the
// caller holds. A write that lands after the load may be in the snapshot too;
// the stamp then undercounts, and the next reader rebuilds.
func (s *Server) snapshotLocked() (*readEpoch, error) {
	if s.engClosed {
		return nil, ErrServerClosed
	}
	g := s.gen.Load()
	if ep := s.epoch.Load(); ep != nil && ep.gen == g {
		return ep, nil
	}
	var snap *sketch.HeavyHitterTracker
	var err error
	switch local := s.eng.Generation(); {
	case local == 0 && s.foreign == nil:
		// Nothing has been written anywhere yet. The empty answer is this
		// epoch's own and goes with it at the first write, where an empty cut
		// would stay pinned in the engine of a node that never ingests.
		snap = s.proto.Clone()
	case local == 0:
		snap, s.foreignServed = s.foreign, true
	case s.foreign == nil:
		snap, err = s.localCut()
	case s.cut != nil && s.cutGen == local:
		// Only foreign mass moved since the cut was pinned: no barrier.
		snap, err = s.plusForeign(s.cut)
	default:
		// The pinned cut is stale too. Summing into a cut of this rebuild's
		// own saves copying a pinned one (a quarter of the rebuild at
		// 65536x4), and the replicator pins the next cut when it ticks. The
		// barrier drops the stale cut from the engine, and so do we.
		s.cut = nil
		if snap, err = s.eng.Snapshot(); err == nil {
			err = snap.Merge(s.foreign)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("server: composing the served state: %w", err)
	}
	ep := &readEpoch{gen: g, snap: snap}
	s.epoch.Store(ep)
	return ep, nil
}

// plusForeign returns cut + foreign in a sketch of its own, for a cut that is
// shared and a foreign that holds mass. Callers hold s.snapMu.
func (s *Server) plusForeign(cut *sketch.HeavyHitterTracker) (*sketch.HeavyHitterTracker, error) {
	sum := cut.Copy()
	if err := sum.Merge(s.foreign); err != nil {
		return nil, err
	}
	return sum, nil
}

// mergeForeign adds a sketch that arrived from outside the local stream to
// the foreign sketch — the only place foreign is written. src must have
// passed DecodeReplica (or be derived from sketches that did), so the merge
// cannot fail on shape or seed. A foreign that was served as a read epoch is
// immutable from then on: the merge goes into a copy, and readers keep the
// old object until their epoch is replaced. Callers hold s.snapMu and bump
// gen once the rest of their bookkeeping is done.
//
// sole says src is a window from the tracked sender whose tracker holds all
// the foreign mass there is — foreign is nil or that very tracker — and the
// caller stores foreign as that sender's tracker afterwards: one array, one
// merge. Any other src ends that: a foreign that is a tracker first becomes
// an array of its own, and the tracker a copy too if readers may hold it,
// since the tracker is written in place from then on.
func (s *Server) mergeForeign(src *sketch.HeavyHitterTracker, sole bool) error {
	switch id := s.trackerOf(s.foreign); {
	case s.foreign == nil:
		s.foreign = s.proto.Clone()
	case id != "" && !sole:
		if s.foreignServed {
			s.senders[id] = s.foreign.Copy()
		}
		s.foreign, s.foreignServed = s.foreign.Copy(), false
	case s.foreignServed:
		s.foreign, s.foreignServed = s.foreign.Copy(), false
	}
	return s.foreign.Merge(src)
}

// trackerOf returns the sender whose tracker sk is, "" if none (nil and
// proto included). Caller holds s.snapMu.
func (s *Server) trackerOf(sk *sketch.HeavyHitterTracker) string {
	for id, tr := range s.senders {
		if tr == sk && sk != s.proto {
			return id
		}
	}
	return ""
}

// adoptSoleTracker makes foreign the tracker of the one sender holding mass
// when that tracker's counters equal foreign's bit for bit — the state a read
// replica fed by one sender recovers or bootstraps into — dropping the
// tracker's own array. Caller holds s.snapMu.
func (s *Server) adoptSoleTracker() {
	sole := ""
	for id, tr := range s.senders {
		switch {
		case tr == s.proto:
		case sole != "":
			return
		default:
			sole = id
		}
	}
	if sole != "" && s.foreign != nil && sameBits(s.senders[sole], s.foreign) {
		s.senders[sole] = s.foreign
	}
}

// sameBits reports whether a and b hold the same counters and total mass,
// bit for bit.
func sameBits(a, b *sketch.HeavyHitterTracker) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return bits(a.TotalMass(), b.TotalMass()) &&
		slices.EqualFunc(a.Backing().CounterData(), b.Backing().CounterData(), bits)
}

// snapshotGen is snapshotLocked behind the barrier lock, for handlers that
// answer from the served state and report the generation it covers.
func (s *Server) snapshotGen() (*sketch.HeavyHitterTracker, int64, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	ep, err := s.snapshotLocked()
	if err != nil {
		return nil, 0, err
	}
	return ep.snap, ep.gen, nil
}

// readBody drains a size-capped request body. Over-limit bodies answer 413;
// any other read failure (client disconnect, bad framing, a body shorter than
// it declared) answers 400. A declared length within the cap is read into one
// allocation of that size; a chunked body, or one declared over the cap, goes
// through the capped reader's growing buffer.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	return s.readBodyInto(w, r, nil)
}

// readBodyInto is readBody reading a declared length into buf's storage when
// it is large enough, instead of allocating (and zeroing) that many bytes.
func (s *Server) readBodyInto(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var data []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBodyBytes {
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		data = buf[:n]
		_, err = io.ReadFull(body, data)
	} else {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		} else {
			writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return data, true
}

// pooledBody is a request body read into a buffer from Server.bodyScratch.
// The handler releases it as soon as the decode has copied everything it
// needs out of data — the JSON parse, or the column decode under the lane
// lock — and defers a second release for the paths that return before that.
type pooledBody struct {
	data []byte
	buf  *[]byte
	pool *sync.Pool
}

// readPooledBody is readBody into a pooled buffer.
func (s *Server) readPooledBody(w http.ResponseWriter, r *http.Request) (pooledBody, bool) {
	buf, _ := s.bodyScratch.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	data, ok := s.readBodyInto(w, r, *buf)
	if !ok {
		s.bodyScratch.Put(buf)
		return pooledBody{}, false
	}
	*buf = data // a body that outgrew the pooled buffer leaves the larger one behind
	return pooledBody{data: data, buf: buf, pool: &s.bodyScratch}, true
}

// release returns the buffer to the pool; data must not be used afterwards.
// Releasing twice is a no-op.
func (b *pooledBody) release() {
	if b.buf != nil {
		b.pool.Put(b.buf)
		b.data, b.buf = nil, nil
	}
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readPooledBody(w, r)
	if !ok {
		return
	}
	defer body.release()
	// JSON parses before the lane lock (the parse allocates its own request
	// struct, so overlapping parses on one lane cost nothing); the binary
	// format decodes under the lock, straight into the lane's reusable
	// columns — that decode is one bounds-checked scan and is part of this
	// lane's pipeline either way.
	ct := r.Header.Get("Content-Type")
	isBinary := strings.HasPrefix(ct, contentTypeBatch)
	var req UpdateRequest
	switch {
	case isBinary:
	case ct == "" || strings.HasPrefix(ct, contentTypeJSON):
		err := json.Unmarshal(body.data, &req)
		body.release()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "decoding JSON updates: %v", err)
			return
		}
	default:
		writeErr(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want %s or %s)",
			ct, contentTypeJSON, contentTypeBatch)
		return
	}

	lane := s.lanes[s.nextLane.Add(1)%uint64(len(s.lanes))]
	lane.mu.Lock()
	defer lane.mu.Unlock()
	// Re-check under the lane lock: Close sets closed before it locks and
	// retires the lanes, so observing false here guarantees the handle is
	// live and this flush lands before the final snapshot.
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	lane.items, lane.deltas = lane.items[:0], lane.deltas[:0]
	if isBinary {
		var err error
		lane.items, lane.deltas, err = DecodeBatchColumns(body.data, lane.items, lane.deltas)
		body.release()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		for _, u := range req.Updates {
			lane.items = append(lane.items, u.Item)
			lane.deltas = append(lane.deltas, u.Delta)
		}
	}

	s.ingestColumns(lane)
	accepted := len(lane.items)
	s.updates.Add(int64(accepted))
	s.batches.Add(1)
	writeJSON(w, http.StatusOK, UpdateResponse{Accepted: accepted})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query()["item"]
	if len(raw) == 0 {
		writeErr(w, http.StatusBadRequest, "missing item parameter (repeatable): /v1/query?item=7&item=8")
		return
	}
	items := make([]uint64, len(raw))
	for i, v := range raw {
		item, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad item %q: %v", v, err)
			return
		}
		items[i] = item
	}
	// ?estimator= is shared across the read endpoints; the point-query path
	// supports the sketch's native estimator only.
	if est := r.URL.Query().Get("estimator"); est != "" && est != "min" {
		writeErrDetail(w, http.StatusBadRequest, "supported estimators: min",
			"unknown estimator %q for /v1/query", est)
		return
	}

	ep, err := s.readEpochSnap()
	if err != nil {
		writeSnapshotErr(w, err)
		return
	}
	resp := QueryResponse{Estimates: make([]Estimate, len(items)), Gen: ep.gen}
	for i, item := range items {
		resp.Estimates[i] = Estimate{Item: item, Estimate: ep.snap.Estimate(item)}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k := 0
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad k %q: want a positive integer", v)
			return
		}
		k = n
	}
	phi := -1.0
	if v := r.URL.Query().Get("phi"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			writeErr(w, http.StatusBadRequest, "bad phi %q: want a fraction in [0,1]", v)
			return
		}
		phi = f
	}

	ep, err := s.readEpochSnap()
	if err != nil {
		writeSnapshotErr(w, err)
		return
	}
	// The ranked candidate list is computed once per epoch and shared by
	// every ?k= request until a write invalidates it; ?phi= thresholds
	// against the un-rounded estimates, so it re-scores per request instead
	// of filtering the cached (rounded) ranking.
	var ranked []TopKItem
	if phi >= 0 {
		source := ep.snap.HeavyHitters(phi)
		ranked = make([]TopKItem, 0, len(source))
		for _, ic := range source {
			ranked = append(ranked, TopKItem{Item: ic.Item, Count: ic.Count})
		}
	} else {
		ranked = ep.rankedTopK()
	}
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	writeJSON(w, http.StatusOK, TopKResponse{Items: ranked, Gen: ep.gen})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.snapMu.Lock()
	ep, err := s.snapshotLocked()
	var data []byte
	if err == nil {
		data, err = ep.snap.MarshalBinary()
	}
	s.snapMu.Unlock()
	if err != nil {
		writeSnapshotErr(w, err)
		return
	}
	s.snapshots.Add(1)
	w.Header().Set("Content-Type", contentTypeSnapshot)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if len(data) == 0 {
		writeErr(w, http.StatusBadRequest, "empty body: POST the bytes of a peer's /v1/snapshot")
		return
	}
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}

	// Decode and validate outside the barrier lock; the engine's registered
	// decoder is the gatekeeper for malformed and incompatible payloads.
	src, err := s.eng.DecodeReplica(data)

	var mass float64
	if err == nil {
		s.snapMu.Lock()
		// Re-check closed under the barrier lock (the analogue of ingest's
		// re-check under the lane lock): Close sets it before the final
		// SaveSnapshot, so a merge that squeezed past the check above cannot
		// be acknowledged after the recovery file was written and then lost.
		if s.engClosed || s.closed.Load() {
			err = ErrServerClosed
		} else if err = s.mergeForeign(src, false); err == nil {
			// Merged snapshots are foreign mass: the gossip replicator must
			// not ship them back out as if this daemon had ingested them.
			s.gen.Add(1)
			s.merges.Add(1)
			var ep *readEpoch
			if ep, err = s.snapshotLocked(); err == nil {
				mass = ep.snap.TotalMass()
			}
		}
		s.snapMu.Unlock()
	}

	if err != nil {
		s.cfg.Logf("server: merge rejected: %v", err)
		switch {
		case errors.Is(err, engine.ErrClosed), errors.Is(err, ErrServerClosed):
			writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		default:
			// Everything else means the posted bytes were malformed or came
			// from an incompatible sketch — the peer's fault, a 4xx.
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, MergeResponse{TotalMass: mass})
}

// handleDelta folds a peer's replication frame in. The per-sender
// generation watermark makes the endpoint idempotent: a frame is applied
// exactly once no matter how often the sender retries it, and a frame from
// a diverged sender (one side restarted) is refused with 409 rather than
// risk double-counting — the sender then re-aligns with a reset frame.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	// A window frame is most of a megabyte at the daemon's default shape, once
	// per tick per sender: read it into a pooled buffer. Only frame.Payload
	// aliases the buffer (the sender id is copied out), and the payload decode
	// below copies every counter out of it in turn.
	body, ok := s.readPooledBody(w, r)
	if !ok {
		return
	}
	defer body.release()
	frame, err := DecodeDeltaFrame(body.data)
	if err != nil {
		s.deltasRejected.Add(1)
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !bootstrapIDOK(frame.Sender) {
		// Every sender id is kept, and must fit the recovery file's id
		// sections, or no later save could be written.
		s.deltasRejected.Add(1)
		writeErr(w, http.StatusBadRequest, "delta frame sender id is %d bytes, want at most %d", len(frame.Sender), bootstrapMaxIDLen)
		return
	}
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}

	// Unwrap and decode the payload outside the barrier lock; the engine's
	// registered decoder rejects foreign seeds, mismatched dimensions and
	// malformed bytes before any counter is touched.
	var src *sketch.HeavyHitterTracker
	if !frame.Reset {
		if src, err = s.decodeDeltaPayload(frame.Payload); err != nil {
			s.deltasRejected.Add(1)
			writeErr(w, http.StatusBadRequest, "delta payload: %v", err)
			return
		}
	}
	frame.Payload = nil
	body.release()

	s.snapMu.Lock()
	if s.engClosed || s.closed.Load() {
		s.snapMu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	mark := s.watermarks[frame.Sender]
	switch {
	case frame.Reset:
		if frame.ToGen == 0 && s.hearsay[frame.Sender] && s.canReplace(frame.Sender) {
			// Our mark for this sender came from a bootstrap transfer and no
			// direct frame has confirmed it. The sender asking for a
			// reset-to-0 may simply never have acked us on this virgin link
			// while our mark jumped past its history — accepting would make
			// it re-ship mass our bootstrap snapshot already holds. Refuse
			// with the replace offer: a replace frame is exact whether or
			// not the sender actually restarted.
			s.snapMu.Unlock()
			s.deltasRejected.Add(1)
			writeErrDetail(w, http.StatusConflict, conflictDetailReplace,
				"refusing reset-to-0 from %q: this node's watermark %d was installed by a bootstrap transfer; send a replace frame instead",
				frame.Sender, mark)
			return
		}
		// Re-alignment after a restart on either side: adopt the sender's
		// declared generation as the new watermark without touching a
		// counter. Lowering is deliberate — a restarted sender resets us to
		// 0 and then re-ships its (post-restart) local mass from scratch.
		s.watermarks[frame.Sender] = frame.ToGen
		mark = frame.ToGen
		delete(s.hearsay, frame.Sender)
		if frame.ToGen == 0 {
			// A reset to zero starts a fresh shipping epoch: everything the
			// sender ships from here on is post-restart mass it re-counts
			// from scratch, so an empty tracker covers the new epoch exactly
			// — even when older, unattributed mass from a previous epoch
			// sits in the counters (that mass is settled history a replace
			// must never subtract).
			s.senders[frame.Sender] = s.proto
		} else {
			// A reset that keeps history (resyncPeer) drops a window that
			// never entered our counters, so an existing tracker stays
			// exact; start tracking where that is provably sound.
			s.senderTracker(frame.Sender)
		}
		replaceOK := s.canReplace(frame.Sender)
		s.snapMu.Unlock()
		s.cfg.Logf("server: gossip watermark for %q reset to %d", frame.Sender, mark)
		writeJSON(w, http.StatusOK, DeltaResponse{Applied: false, Watermark: mark, CanReplace: replaceOK})

	case frame.ToGen <= mark && !(frame.Replace && s.hearsay[frame.Sender]):
		// A retry of a frame already applied (its ack was lost). Acknowledge
		// without applying — this is what makes redelivery safe. Replace
		// frames take the same exit: the watermark bump and tracker install
		// happened on the attempt whose ack was lost. The one exception is a
		// replace from a sender whose mark is hearsay — nothing on this link
		// was ever really acked, so "already applied" cannot be true and the
		// frame falls through to the replace branch below.
		replaceOK := s.canReplace(frame.Sender)
		s.snapMu.Unlock()
		s.deltasDuplicate.Add(1)
		writeJSON(w, http.StatusOK, DeltaResponse{Applied: false, Watermark: mark, CanReplace: replaceOK})

	case frame.Replace:
		// The payload is the sender's *entire* local sketch L. Applying
		// net = L − tracker[sender] in one barrier makes our counters hold
		// exactly L as that sender's contribution, no matter how far the
		// watermark and the actually-absorbed mass had diverged (e.g. our
		// marks were installed by a bootstrap transfer that outran what this
		// sender shipped us directly). Only sound when the tracker provably
		// covers everything the sender ever landed in our counters. One
		// carve-out below: a wiped-and-restarted sender behind a hearsay
		// mark gets its old mass kept as settled history instead.
		tr := s.senderTracker(frame.Sender)
		if tr == nil {
			s.snapMu.Unlock()
			s.deltasRejected.Add(1)
			writeErr(w, http.StatusConflict,
				"cannot apply replace frame from %q: received mass is untracked on this node; use a reset resync",
				frame.Sender)
			return
		}
		switch {
		case s.hearsay[frame.Sender] && frame.ToGen < mark:
			// The sender's generation counter sits *behind* the hearsay mark a
			// bootstrap transfer installed for it — counters only move
			// backwards by restarting, so the tracked mass is a previous
			// incarnation's settled history. Keep it (exactly like an accepted
			// reset-to-0 keeps pre-restart mass) and absorb the new
			// incarnation's entire state as a fresh epoch; the tracker swap
			// below anchors future replaces to the new incarnation only.
			err = s.mergeForeign(src, false)
		case s.foreign == nil || s.foreign == tr:
			// The tracker is all the foreign mass there is, so L replaces
			// foreign outright, and foreign is the sender's tracker again.
			fresh := s.proto.Clone()
			if err = fresh.Merge(src); err == nil {
				s.foreign, s.foreignServed, src = fresh, false, fresh
			}
		default:
			apply := src.Copy()
			if err = apply.Sub(tr); err == nil {
				err = s.mergeForeign(apply, false)
			}
		}
		if err != nil {
			s.snapMu.Unlock()
			s.cfg.Logf("server: replace frame from %q rejected: %v", frame.Sender, err)
			s.deltasRejected.Add(1)
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		// The mark may move *down* here: a hearsay mark was installed by a
		// bootstrap transfer that outran this (possibly restarted, possibly
		// merely never-acked) sender's own generation counter. After the
		// replace the tracker holds the sender's exact local state at ToGen,
		// so anchoring the link at the sender's true generation is sound and
		// the hearsay is resolved into an earned mark.
		s.senders[frame.Sender] = src
		s.watermarks[frame.Sender] = frame.ToGen
		delete(s.hearsay, frame.Sender)
		s.gen.Add(1)
		s.snapMu.Unlock()
		s.deltasReplaced.Add(1)
		s.cfg.Logf("server: state from %q replaced at generation %d", frame.Sender, frame.ToGen)
		writeJSON(w, http.StatusOK, DeltaResponse{Applied: true, Watermark: frame.ToGen, CanReplace: true})

	case frame.FromGen != mark:
		// The frame's window does not start at our watermark: the sender and
		// we disagree about what has been shipped (somebody restarted or we
		// bootstrapped). Refuse — applying would double-count the overlap or
		// skip a gap. When the sender's received mass is tracked here, the
		// detail advertises the lossless replace resync.
		replaceOK := s.canReplace(frame.Sender)
		s.snapMu.Unlock()
		s.deltasRejected.Add(1)
		detail := ""
		if replaceOK {
			detail = conflictDetailReplace
		}
		writeErrDetail(w, http.StatusConflict, detail,
			"stale watermark for sender %q: frame covers generations (%d, %d], receiver watermark is %d",
			frame.Sender, frame.FromGen, frame.ToGen, mark)

	default:
		// Applied deltas are foreign mass — never gossiped onward. While it is
		// all this sender's, the sender's tracker is foreign itself.
		tr := s.senderTracker(frame.Sender)
		sole := tr != nil && (s.foreign == nil || s.foreign == tr)
		if err := s.mergeForeign(src, sole); err != nil {
			s.snapMu.Unlock()
			s.cfg.Logf("server: delta from %q rejected: %v", frame.Sender, err)
			s.deltasRejected.Add(1)
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		replaceOK := sole
		if sole {
			s.senders[frame.Sender] = s.foreign
		} else if tr != nil {
			if tr == s.proto {
				// The sender's first mass: from here on it has a tracker of
				// its own.
				tr = s.proto.Clone()
				s.senders[frame.Sender] = tr
			}
			if err := tr.Merge(src); err != nil {
				// Cannot happen for sketches the engine decoded, but if the
				// tracker ever falls out of sync the only safe posture is to
				// stop advertising replace for everyone.
				delete(s.senders, frame.Sender)
				s.untracked = true
				s.cfg.Logf("server: sender tracker for %q diverged (%v): replace resync disabled", frame.Sender, err)
			} else {
				replaceOK = true
			}
		}
		s.watermarks[frame.Sender] = frame.ToGen
		// A frame whose window starts exactly at our mark proves the
		// sender's numbering and ours agree — the mark is no longer hearsay.
		delete(s.hearsay, frame.Sender)
		s.gen.Add(1)
		s.snapMu.Unlock()
		s.deltasApplied.Add(1)
		writeJSON(w, http.StatusOK, DeltaResponse{Applied: true, Watermark: frame.ToGen, CanReplace: replaceOK})
	}
}

// decodeDeltaPayload expands a frame's KindDelta envelope into a pooled
// buffer and decodes the tracker inside it. The tracker owns its memory — the
// decoder copies every counter and candidate out — so the buffer goes back to
// the pool before this returns.
func (s *Server) decodeDeltaPayload(payload []byte) (*sketch.HeavyHitterTracker, error) {
	scratch, _ := s.deltaScratch.Get().(*[]byte)
	if scratch == nil {
		scratch = new([]byte)
	}
	defer s.deltaScratch.Put(scratch)
	inner, err := sketch.DecodeDeltaInto(*scratch, payload, s.maxDeltaInner)
	if err != nil {
		return nil, err
	}
	*scratch = inner // the expansion may have outgrown the pooled buffer: keep the larger
	return s.eng.DecodeReplica(inner)
}

// conflictDetailReplace is the machine-readable detail attached to a 409
// watermark conflict when this receiver can apply a lossless replace frame
// from that sender instead of a destructive reset.
const conflictDetailReplace = "resync=replace"

// senderTracker returns the tracker of mass received from sender, starting to
// track it when that is provably sound: with untracked false, every sender
// with mass in the counters already has an entry, so an absent entry means
// this sender has contributed nothing yet and the empty tracker — proto, read
// only; see Server.senders — is exact. Returns nil when no sound tracker
// exists. Caller holds s.snapMu.
func (s *Server) senderTracker(sender string) *sketch.HeavyHitterTracker {
	if tr, ok := s.senders[sender]; ok {
		return tr
	}
	if s.untracked {
		return nil
	}
	s.senders[sender] = s.proto
	return s.proto
}

// canReplace reports whether a replace frame from sender would be accepted.
// Caller holds s.snapMu.
func (s *Server) canReplace(sender string) bool {
	if _, ok := s.senders[sender]; ok {
		return true
	}
	return !s.untracked
}

// Gossip replication (sender side) -------------------------------------------

// gossipLoop ships deltas to every peer each GossipEvery until Close.
func (s *Server) gossipLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.GossipEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.gossipTick(context.Background())
		}
	}
}

// gossipTick cuts one local-state snapshot and pushes every eligible peer's
// delta against it. Skipped entirely when every peer has acknowledged the
// current local generation and nothing is pending — an idle mesh costs no
// barriers. Peers sitting in a failure backoff window are skipped too, so an
// unreachable peer costs one connection attempt per window instead of one
// per tick.
func (s *Server) gossipTick(ctx context.Context) {
	s.gossipPush(ctx, false)
}

func (s *Server) gossipPush(ctx context.Context, ignoreBackoff bool) {
	if s.bootstrapping.Load() {
		// No deltas ship until the bootstrap transfer lands: local ingest is
		// gated off anyway, and a reset provoked mid-transfer would race the
		// watermark install.
		return
	}
	targets := s.gossipTargets(ignoreBackoff)
	if len(targets) == 0 {
		return
	}
	local, gen, err := s.localSnapshot()
	if err != nil {
		if !errors.Is(err, ErrServerClosed) && !errors.Is(err, engine.ErrClosed) {
			s.cfg.Logf("server: gossip snapshot failed: %v", err)
		}
		return
	}
	cut := &gossipCut{local: local, gen: gen}
	for _, p := range targets {
		s.pushPeer(ctx, p, cut)
	}
}

// gossipCut is one tick's cut of the local sketch together with the delta
// frames encoded against it so far. In a settled mesh every peer acked the
// previous tick and so holds the same baseline: the tick encodes one frame
// and every peer is posted the same bytes.
type gossipCut struct {
	local  *sketch.HeavyHitterTracker
	gen    int64
	frames []cutFrame
}

// cutFrame is the encoded frame (never written again once built) shipping a
// cut's local state minus one baseline.
type cutFrame struct {
	base    *sketch.HeavyHitterTracker
	baseGen int64
	frame   []byte
}

// deltaFrame returns the frame that takes a peer from (base, baseGen) to the
// cut, encoding it the first time that baseline is asked for.
func (s *Server) deltaFrame(cut *gossipCut, base *sketch.HeavyHitterTracker, baseGen int64) ([]byte, error) {
	for _, f := range cut.frames {
		if f.base == base && f.baseGen == baseGen {
			return f.frame, nil
		}
	}
	frame, err := s.encodeFrame(DeltaFrame{Sender: s.cfg.NodeID, FromGen: uint64(baseGen), ToGen: uint64(cut.gen)}, cut.local, base)
	if err != nil {
		return nil, err
	}
	cut.frames = append(cut.frames, cutFrame{base: base, baseGen: baseGen, frame: frame})
	return frame, nil
}

// encodeFrame builds frame f around the payload local − base in one pass and
// one buffer: the header, then the envelope streamed straight off the two
// counter arrays (no difference sketch, no dense encoding), then the
// payload's length patched in behind the header. By linearity the payload is
// a valid sketch of exactly the updates ingested between the two cuts; with
// the empty baseline it is local itself, a replace frame's payload.
func (s *Server) encodeFrame(f DeltaFrame, local, base *sketch.HeavyHitterTracker) ([]byte, error) {
	buf := make([]byte, 0, s.lastFrameLen+s.lastFrameLen/8+256)
	buf = appendDeltaFrameHeader(buf, f)
	lenAt := len(buf)
	buf, err := local.AppendDeltaSince(append(buf, 0, 0, 0, 0), base)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	s.lastFrameLen = len(buf)
	return buf, nil
}

// gossipTargets returns the peers that lag the current local generation or
// hold an un-acked frame, minus (unless ignoreBackoff) those still inside
// their failure backoff window, and notes when each lagging link was first
// found behind.
func (s *Server) gossipTargets(ignoreBackoff bool) []*peerState {
	g := s.localGen.Load()
	now := time.Now()
	var targets []*peerState
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	for _, p := range s.peers {
		if p.pending == nil && p.baseGen == g {
			continue
		}
		if p.behindSince.IsZero() {
			p.behindSince = now
		}
		if !ignoreBackoff && p.failStreak > 0 && now.Before(p.nextAttempt) {
			continue
		}
		targets = append(targets, p)
	}
	return targets
}

// backoffFor returns the retry hold-off after streak consecutive transport
// failures to one peer: one gossip interval, doubled per further failure,
// capped at GossipBackoffMax.
func (s *Server) backoffFor(streak int) time.Duration {
	d := s.cfg.GossipEvery
	for i := 1; i < streak; i++ {
		d *= 2
		if d >= s.cfg.GossipBackoffMax {
			return s.cfg.GossipBackoffMax
		}
	}
	if d > s.cfg.GossipBackoffMax {
		d = s.cfg.GossipBackoffMax
	}
	return d
}

// localSnapshot returns the sketch of *locally ingested* updates — the
// engine's pinned cut, since foreign mass never enters the engine — with the
// local write generation it covers. The replicator retains it as a peer
// baseline and encodes frames from it outside the lock; it is the object the
// read path serves while there is no foreign mass, which is sound because
// neither side ever writes to it.
func (s *Server) localSnapshot() (*sketch.HeavyHitterTracker, int64, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.engClosed {
		return nil, 0, ErrServerClosed
	}
	// The generation loads before the cut, so the cut covers at least
	// everything it counts (see snapshotLocked; late-racing writes land in the
	// cut too — harmless, the retained baseline keeps them from shipping
	// twice).
	gLocal := s.localGen.Load()
	local, err := s.localCut()
	if err != nil {
		return nil, 0, err
	}
	return local, gLocal, nil
}

// pushPeer ships one peer its delta: first any un-acked frame verbatim
// (the watermark makes redelivery idempotent), then the difference between
// the current local state and the peer's acknowledged baseline.
func (s *Server) pushPeer(ctx context.Context, p *peerState, cut *gossipCut) {
	local, gen := cut.local, cut.gen
	s.peerMu.Lock()
	pending, pendingLocal, pendingGen := p.pending, p.pendingLocal, p.pendingGen
	baseline, baseGen := p.baseline, p.baseGen
	everAcked := p.framesAcked > 0
	s.peerMu.Unlock()

	if pending != nil {
		resp, err := p.client.pushDeltaRaw(ctx, pending)
		switch outcome, canReplace := classifyPush(resp, err, pendingGen, true); outcome {
		case pushAcked:
			s.peerAcked(p, pendingLocal, pendingGen, len(pending))
			baseline, baseGen = pendingLocal, pendingGen
		case pushDiverged:
			s.resolveConflict(ctx, p, local, gen, everAcked, canReplace)
			return
		default:
			s.peerFailed(p, err)
			return
		}
	}

	if gen == baseGen {
		return // the peer already has every locally ingested update
	}

	// local now - local as of the last ack, shared with every other peer
	// that acked the same cut.
	frame, err := s.deltaFrame(cut, baseline, baseGen)
	if err != nil {
		s.cfg.Logf("server: encoding delta for %s: %v", p.url, err)
		return
	}

	resp, err := p.client.pushDeltaRaw(ctx, frame)
	switch outcome, canReplace := classifyPush(resp, err, gen, false); outcome {
	case pushAcked:
		s.peerAcked(p, local, gen, len(frame))
	case pushDiverged:
		s.resolveConflict(ctx, p, local, gen, everAcked, canReplace)
	default:
		// Transport failure or 5xx: the outcome is unknown, so keep the
		// frame and retry it verbatim next tick (after the backoff window).
		// If the peer did apply it, the retry is absorbed idempotently
		// (toGen <= watermark).
		s.peerMu.Lock()
		p.pending, p.pendingLocal, p.pendingGen = frame, local, gen
		s.peerMu.Unlock()
		s.peerFailed(p, err)
	}
}

// pushOutcome is what a peer's answer to a window frame means for the link.
type pushOutcome int

const (
	pushFailed   pushOutcome = iota // transport failure or 5xx: outcome unknown
	pushAcked                       // the peer holds everything up to the frame's toGen
	pushDiverged                    // the two sides disagree about what has been shipped
)

// classifyPush sorts the answer to a window frame ending at generation gen.
// A 409 is a divergence, carrying the receiver's replace offer in its detail.
// So is a 200 that did not apply the frame — the receiver's watermark already
// covers the window, so believing the no-op ack would advance the baseline
// over mass that never replicated — with one exception: a retried frame
// acked at (or below) its own toGen is just its lost ack arriving.
func classifyPush(resp DeltaResponse, err error, gen int64, retry bool) (outcome pushOutcome, canReplace bool) {
	switch {
	case err == nil && !resp.Applied && (!retry || resp.Watermark > uint64(gen)):
		return pushDiverged, resp.CanReplace
	case err == nil:
		return pushAcked, false
	case isWatermarkConflict(err):
		return pushDiverged, conflictAllowsReplace(err)
	default:
		return pushFailed, false
	}
}

// noteOutcome records how a round trip to the peer ended: nil clears the
// failure backoff; an error is surfaced in /v1/stats and pushes the next
// attempt out by an exponentially growing window. Caller holds s.peerMu.
func (s *Server) noteOutcome(p *peerState, err error) {
	if err == nil {
		p.lastErr = ""
		p.failStreak, p.nextAttempt = 0, time.Time{}
		return
	}
	p.lastErr = err.Error()
	p.failStreak++
	p.nextAttempt = time.Now().Add(s.backoffFor(p.failStreak))
}

// rebase moves the link to (baseline, gen) — what the peer now holds of this
// node — dropping any retained frame, and notes the outcome of the round trip
// that got it there. Caller holds s.peerMu.
func (s *Server) rebase(p *peerState, baseline *sketch.HeavyHitterTracker, gen int64, err error) {
	p.pending, p.pendingLocal = nil, nil
	p.baseline, p.baseGen = baseline, gen
	p.behindSince = time.Time{}
	s.noteOutcome(p, err)
}

// peerAcked records a delivered counter-carrying frame of frameLen bytes that
// took the peer to (baseline, gen). Reset frames ship nothing and do not
// count: everAcked must stay false on a link that was only ever reset.
func (s *Server) peerAcked(p *peerState, baseline *sketch.HeavyHitterTracker, gen int64, frameLen int) {
	s.peerMu.Lock()
	p.framesAcked++
	p.bytesShipped += int64(frameLen)
	s.rebase(p, baseline, gen, nil)
	s.peerMu.Unlock()
}

// peerFailed records a transport failure on a peer link.
func (s *Server) peerFailed(p *peerState, err error) {
	s.peerMu.Lock()
	s.noteOutcome(p, err)
	s.peerMu.Unlock()
}

// resolveConflict re-aligns a link whose two ends disagree about what has
// been shipped. On a never-acked link the peer remembers a previous
// incarnation of this node id: we restarted. After a successful ack it is the
// *peer's* mark that jumped (typically it wiped its disk and bootstrapped,
// installing watermarks for us that no longer match what we shipped it
// directly) — resetting to zero there would re-ship mass its counters
// already hold, so when the peer tracks our received mass it gets a lossless
// replace frame; otherwise fall back to the legacy reset, which drops
// un-acked local mass from gossip rather than risk double-counting.
func (s *Server) resolveConflict(ctx context.Context, p *peerState, local *sketch.HeavyHitterTracker, gen int64, everAcked, canReplace bool) {
	switch {
	case !everAcked:
		s.resyncRestartedSender(ctx, p, local, gen)
	case canReplace:
		s.resyncPeerReplace(ctx, p, local, gen)
	default:
		s.resyncPeer(ctx, p, local, gen)
	}
}

// resyncPeerReplace heals a diverged peer exactly: ship our entire local
// sketch L in a replace frame; the receiver swaps its recorded contribution
// from this node for L in one barrier (absorbing L minus its tracker), so
// no local mass is lost and none is double-counted, regardless of how the
// two sides' windows diverged.
func (s *Server) resyncPeerReplace(ctx context.Context, p *peerState, local *sketch.HeavyHitterTracker, gen int64) {
	frame, err := s.encodeFrame(DeltaFrame{Sender: s.cfg.NodeID, ToGen: uint64(gen), Replace: true}, local, s.proto)
	if err != nil {
		s.cfg.Logf("server: encoding replace frame for %s: %v", p.url, err)
		return
	}
	resp, err := p.client.pushDeltaRaw(ctx, frame)
	switch {
	case err == nil && !resp.Applied && resp.Watermark != uint64(gen):
		// Duplicate-acked at some *other* watermark: the peer's mark for us
		// outruns our whole post-restart generation counter and its tracker
		// was not synchronized to `local`. Believing this ack would silently
		// stop replicating until our counter catches up, so treat it as a
		// failure and keep retrying — each round trip re-offers the conflict
		// until one side's generation state lets the replace land.
		s.peerFailed(p, fmt.Errorf("replace frame at generation %d duplicate-acked at watermark %d", gen, resp.Watermark))
	case err == nil:
		// Applied — or duplicate-acked exactly at gen because our previous
		// replace's ack was lost, which still means the peer holds everything
		// the cut covers. Either way `local` is now the peer's record of us.
		s.peerAcked(p, local, gen, len(frame))
		s.cfg.Logf("server: peer %s diverged: healed with a replace frame at generation %d", p.url, gen)
	case isWatermarkConflict(err):
		// The peer refused the replace (it holds this node's mass untracked):
		// fall back to the legacy reset.
		s.resyncPeer(ctx, p, local, gen)
	default:
		// Unknown outcome: don't retain the frame (the next tick recuts and
		// retries the conflict resolution from scratch), just back off.
		s.peerFailed(p, err)
	}
}

// resyncRestartedSender re-aligns a peer after *this* daemon restarted: the
// peer's watermark outruns our restarted generation counter (detected from
// a no-op ack whose watermark exceeds the frame we just sent, or a 409 on
// our very first frame). Reset the peer's watermark to zero and start over
// with an empty baseline: our local sketch contains only post-restart mass
// (recovered snapshots count as foreign), and the peer's copy of our
// pre-restart mass stays where its counters already are — so the full
// re-ship loses nothing and double-counts nothing.
//
// A peer may refuse the reset: its mark for us is bootstrap-installed
// hearsay, so from where it stands we may not have restarted at all — we
// might be a long-running daemon whose virgin link it outran by
// bootstrapping. It offers the replace resync instead, which is exact in
// both cases, so take it.
func (s *Server) resyncRestartedSender(ctx context.Context, p *peerState, local *sketch.HeavyHitterTracker, gen int64) {
	frame := AppendDeltaFrame(nil, DeltaFrame{
		Sender: s.cfg.NodeID,
		Reset:  true, // FromGen = ToGen = 0: restart the window from scratch
	})
	_, err := p.client.pushDeltaRaw(ctx, frame)
	if conflictAllowsReplace(err) {
		s.resyncPeerReplace(ctx, p, local, gen)
		return
	}
	s.peerMu.Lock()
	s.rebase(p, s.proto, 0, err) // on failure the next frame will conflict and retry the resync
	s.peerMu.Unlock()
	s.cfg.Logf("server: peer %s remembers a previous incarnation of %q: watermark reset to 0, re-shipping local state", p.url, s.cfg.NodeID)
}

// resyncPeer re-aligns a peer whose watermark no longer matches our
// generation sequence — one of the two daemons restarted. A reset frame
// moves the peer's watermark to the current local generation without
// shipping counters; locally ingested mass the peer never acknowledged is
// dropped from gossip (never double-counted), and the operator remedy is a
// one-shot /v1/snapshot -> /v1/merge (see docs/CLUSTER.md).
func (s *Server) resyncPeer(ctx context.Context, p *peerState, local *sketch.HeavyHitterTracker, gen int64) {
	frame := AppendDeltaFrame(nil, DeltaFrame{
		Sender:  s.cfg.NodeID,
		FromGen: uint64(gen),
		ToGen:   uint64(gen),
		Reset:   true,
	})
	_, err := p.client.pushDeltaRaw(ctx, frame)
	s.peerMu.Lock()
	s.rebase(p, local, gen, err) // on failure next tick's frame will conflict and resync again
	s.peerMu.Unlock()
	s.cfg.Logf("server: gossip watermark conflict with %s: reset to local generation %d", p.url, gen)
}

// isWatermarkConflict reports whether err is the receiver refusing a frame
// because the generation windows diverged (HTTP 409).
func isWatermarkConflict(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict
}

// conflictAllowsReplace reports whether a 409 carries the receiver's offer
// to resolve the divergence with a lossless replace frame.
func conflictAllowsReplace(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict &&
		apiErr.Detail == conflictDetailReplace
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := Stats{
		Width:           s.cfg.Width,
		Depth:           s.cfg.Depth,
		K:               s.cfg.K,
		Workers:         s.eng.Workers(),
		Producers:       len(s.lanes),
		Mode:            s.eng.Mode(),
		Updates:         s.updates.Load(),
		Batches:         s.batches.Load(),
		Merges:          s.merges.Load(),
		Snapshots:       s.snapshots.Load(),
		DeltasApplied:   s.deltasApplied.Load(),
		DeltasDuplicate: s.deltasDuplicate.Load(),
		DeltasRejected:  s.deltasRejected.Load(),
		DeltasReplaced:  s.deltasReplaced.Load(),
		StreamsActive:   s.streamsActive.Load(),
		StreamFrames:    s.streamFrames.Load(),
		EpochHits:       s.epochHits.Load(),
		EpochMisses:     s.epochMisses.Load(),
		BatchQueries:    s.batchQueries.Load(),
	}
	if stats.BatchQueries > 0 {
		stats.MeanBatchKeys = float64(s.batchKeys.Load()) / float64(stats.BatchQueries)
	}
	s.streamMu.Lock()
	stats.StreamSessions = len(s.streamSessions)
	s.streamMu.Unlock()
	gen := s.localGen.Load()
	var baselines []*sketch.HeavyHitterTracker
	s.peerMu.Lock()
	for _, p := range s.peers {
		for _, held := range []*sketch.HeavyHitterTracker{p.baseline, p.pendingLocal} {
			if held != nil && held != s.proto && !slices.Contains(baselines, held) {
				baselines = append(baselines, held) // an engine cut of some generation
			}
		}
		stat := PeerStat{
			URL:          p.url,
			AckedGen:     p.baseGen,
			LagGens:      gen - p.baseGen,
			FramesAcked:  p.framesAcked,
			BytesShipped: p.bytesShipped,
			Pending:      p.pending != nil,
			LastError:    p.lastErr,
		}
		if p.failStreak > 0 {
			stat.BackoffMs = s.backoffFor(p.failStreak).Milliseconds()
		}
		if stat.LagGens > 0 && !p.behindSince.IsZero() {
			stat.LagSeconds = time.Since(p.behindSince).Seconds()
		}
		stats.Peers = append(stats.Peers, stat)
	}
	s.peerMu.Unlock()
	s.snapMu.Lock()
	ep, err := s.snapshotLocked()
	if err != nil {
		s.snapMu.Unlock()
		writeSnapshotErr(w, err)
		return
	}
	stats.Gen = ep.gen
	stats.TotalMass = ep.snap.TotalMass()
	// Read behind the snapshot's barrier, so every acknowledged batch has
	// reached its worker and the count covers the replica it brought in.
	stats.CounterWords = s.eng.CounterWords()
	stats.Resident.Replicas = stats.CounterWords / (s.cfg.Width * s.cfg.Depth)
	if s.foreign != nil && s.trackerOf(s.foreign) == "" {
		stats.Resident.Foreign = 1
	}
	for _, tr := range s.senders {
		if tr != s.proto {
			stats.Resident.Senders++
		}
	}
	// The engine's pinned cut is one array however many of the read epoch and
	// the peer links point at it; each other array is counted where it is
	// first met: a retained cut of an older generation, then a served state
	// that is none of the above.
	if s.cut != nil {
		stats.Resident.LocalCut = 1
	}
	for _, held := range baselines {
		if held != s.cut {
			stats.Resident.Baselines++
		}
	}
	if ep.snap != s.foreign && ep.snap != s.cut && !slices.Contains(baselines, ep.snap) {
		stats.Resident.Epoch = 1
	}
	if len(s.watermarks) > 0 {
		stats.Watermarks = make(map[string]uint64, len(s.watermarks))
		for sender, mark := range s.watermarks {
			stats.Watermarks[sender] = mark
		}
	}
	switch {
	case s.bootstrapping.Load():
		stats.Bootstrap = "pending"
	case s.bootstrapDegraded:
		stats.Bootstrap = "degraded"
	case s.wasBootstrapped:
		stats.Bootstrap = "done"
	}
	stats.BootstrapSource = s.bootstrapSource
	s.snapMu.Unlock()
	stats.BootstrapFailures = s.bootstrapFailures.Load()
	writeJSON(w, http.StatusOK, stats)
}

// writeSnapshotErr maps engine snapshot failures to HTTP statuses.
func writeSnapshotErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrServerClosed) || errors.Is(err, engine.ErrClosed) {
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	writeErr(w, http.StatusInternalServerError, "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", contentTypeJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr answers a failure with the unified JSON error envelope
// {"error": {"code", "message", "detail"}}; the code is derived from the
// HTTP status.
func writeErr(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeErrDetail(w, status, "", format, args...)
}

// writeErrDetail is writeErr with an extra machine-readable detail string
// (remediation hints: enabled algorithms, accepted ranges).
func writeErrDetail(w http.ResponseWriter, status int, detail, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: ErrorDetail{
		Code:    codeForStatus(status),
		Message: fmt.Sprintf(format, args...),
		Detail:  detail,
	}})
}

// codeForStatus maps an HTTP status to the stable error code of the envelope.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_argument"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusUnsupportedMediaType:
		return "unsupported_media_type"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		if status >= 500 {
			return "internal"
		}
		return "error"
	}
}
