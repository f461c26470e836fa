// Package server is the network ingestion front-end over internal/engine:
// an HTTP daemon (cmd/sketchd) that owns a sharded heavy-hitter engine and
// exposes updates, point queries, top-k reports, and — the part that makes
// it distributed — snapshot export, merge, and continuous gossip
// delta-replication between peers.
//
// The design leans entirely on the survey's linearity law. A sketch is a
// linear map of the frequency vector, so for any split of a stream across
// daemons, sketch(x_1 + x_2) = sketch(x_1) + sketch(x_2) as long as every
// daemon was started with the same seed and dimensions. GET /v1/snapshot
// serializes a daemon's exact merged state with the versioned encoding of
// internal/sketch (hash seeds ride along); POST /v1/merge on a peer folds
// those bytes in with the exact linear merge. Nothing approximate happens at
// the transport layer: a fleet of daemons that ingests a partitioned stream
// and merges pairwise converges to byte-for-byte the sketch one process
// would have built from the whole stream.
//
// Reconciliation is no longer only pull-driven. Linearity also makes the
// *difference* of two snapshots a valid sketch — of exactly the updates
// between them — so daemons started with Config.Peers run a replicator
// goroutine that, every GossipEvery, ships each peer the delta between the
// daemon's current locally ingested state and the last state that peer
// acknowledged. Deltas are mostly zero counters, and small integers where
// they are not, and travel in the compressed KindDelta envelope: a zero run,
// a literal, or a one- or two-byte token for a small integer counter (see
// internal/sketch's encoding.go). A tick cuts the local state once and
// encodes once per distinct baseline — in a settled mesh every peer holds
// the same one, so every peer is posted the same bytes — and the encode is
// one pass over the two counter arrays straight into the frame buffer
// (HeavyHitterTracker.AppendDeltaSince): no copy of the sketch, no
// difference sketch and no dense encoding are ever built. POST /v1/delta
// reads the frame and expands its envelope into pooled buffers, validates
// the whole payload (non-finite counters included) before anything is
// touched, and folds it in idempotently: the receiver keeps a per-sender generation
// watermark, so retried or reordered frames are acknowledged without being
// applied twice, and frames from a diverged sender are refused (409) and
// re-aligned with a reset frame rather than double-counted. Only locally
// ingested mass is gossiped: the engine holds nothing else. Merges, applied
// deltas, bootstrap transfers and recovered snapshots live in one separate
// "foreign" sketch (Server.mergeForeign is its only writer, and allocates it
// on first use), which is added to the engine's cut in exactly one place,
// when the served state is composed (snapshotLocked) — so a full mesh
// converges to exactly the global sketch with no relaying, no
// double-counting and nothing to subtract back out. See docs/CLUSTER.md for
// the operator guide and DeltaFrame in wire.go for the protocol.
//
// The sum is served, not stored. The engine pins one immutable cut of the
// local mass per write generation (engine.ReadSnapshot), and the read path,
// the replicator and /v1/bootstrap all take that one object: a node with no
// foreign mass serves it as it is, and retains it as its peers' baseline. A
// node that has ingested nothing serves the foreign sketch itself, and
// mergeForeign copies a foreign that readers may hold before writing to it.
// Only a node holding both kinds of mass composes a sketch of its own, and
// the daemon keeps one cache of the result (the read epoch, readpath.go).
//
// Counter arrays exist only where mass is. The daemon's prototype
// (sketch.Prototype) carries shape and hash functions and no counters; engine
// replicas, the foreign sketch and the per-sender trackers are cloned from it
// when their first batch, merge or window frame arrives, and it stands in
// for the empty sketch wherever one is only read — the baseline of a peer
// link nothing was acked on, the tracker of a sender that was reset to zero.
// /v1/stats reports what is resident (resident_sketches).
//
// Ingestion is concurrent end to end, and batch-first. Every /v1/update
// handler routes its batch through one of Config.Producers engine producer
// handles — round-robin lanes with lane-local locks — so parallel clients
// never serialize behind a global mutex, and the linearity law above
// guarantees the interleaving doesn't matter: the merged counters equal a
// single-threaded run exactly (asserted under the race detector by the
// concurrent-ingestion test). The binary update body decodes straight into
// the lane's reusable key/delta columns (DecodeBatchColumns — no per-item
// structs), which flow whole through the producer handle into the sketches'
// batched update path. That decode is also where a NaN or ±Inf delta is
// refused, for POST bodies and stream frames alike: one would poison a
// counter for good and gossip would copy it to every peer.
// Queries are answered from the served state cached per write generation;
// snapshot, merge and stats share one narrow barrier lock that the update
// hot path never touches.
//
// Producers with a sustained feed can skip per-request HTTP entirely:
// POST /v1/stream (and its raw TCP twin, Server.ServeStream / sketchd
// -stream-addr) holds one connection open and carries the same SKB1 batches
// as length-prefixed, CRC-guarded frames, with acknowledgement frames
// streaming back on the same connection. Each connection pins one producer
// lane for its whole lifetime, so concurrent streams never contend and the
// per-frame steady state allocates nothing. Acks carry a cumulative
// applied-sequence watermark per named session, which makes reconnection
// exactly-once: StreamUpdater (the shipped client) replays unacked frames
// verbatim and the server absorbs duplicates as no-ops. See stream.go for
// the frame protocol and docs/API.md for the wire reference.
//
// The same snapshot bytes double as the crash-recovery format: with a
// snapshot directory configured, the server ships its state to disk
// periodically and on shutdown, and folds the file back in on startup, so a
// restarted daemon answers queries from bit-identical counters.
//
// Incompatible peers are rejected, not absorbed: /v1/merge verifies that the
// posted sketch shares the daemon's dimensions, hash seed and family, and
// answers 4xx (with the decoder's message) on any mismatch or malformed
// payload. The sketch decoder itself refuses a NaN or ±Inf counter or total
// mass, so /v1/merge, /v1/delta, bootstrap transfers and snapshot recovery
// all turn a poisoned sketch away with nothing touched.
package server
