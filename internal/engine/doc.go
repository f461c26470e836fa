// Package engine scales sketch ingestion across CPU cores by sharding, with
// a multi-producer ingestion pipeline on the front and a barrier-consistent
// snapshot on the back. It offers two sharding modes over the same API and
// the same bit-identical reads.
//
// The correctness argument is the survey's central observation: a sketch is a
// sparse *linear* map of the frequency vector, so for any split of a stream
// into sub-streams x = x_1 + x_2 + ... + x_N,
//
//	sketch(x) = sketch(x_1) + sketch(x_2) + ... + sketch(x_N)
//
// provided every term is computed with the same hash functions. In the
// default *replica* mode the engine exploits this twice. On the consumer
// side, each of N worker goroutines owns a private replica of a prototype
// sketch (created with Clone when the worker's first batch arrives, so all
// replicas share the prototype's hash seeds and an idle worker holds no
// counters); batches fan across the workers and the replicas fold back together
// with Merge when a snapshot is requested. On the producer side, any number
// of goroutines ingest concurrently, each through its own handle from
// Engine.Producer: a handle owns a private batch buffer and a private
// round-robin cursor, so the hot path shares no locks — the only
// synchronization is the per-batch shard channel send, amortized over
// BatchSize updates. Linearity makes both splits exact: whichever producer
// an update arrives through and whichever shard its batch lands on, the
// merged result is *exactly* — not approximately — the sketch a
// single-threaded run over the whole stream would have produced, because
// counter addition is associative and commutative; in particular the
// per-row median estimator of Count-Sketch and the row-minimum estimator of
// Count-Min are evaluated on identical counter matrices.
//
// Replica mode buys merge-free ingestion with up to workers x sketch-size
// memory: one clone per worker that has received a batch.
// *Partition* mode (Config.Partition, families implementing
// sketch.ColumnSketch via NewLinear or the family constructors) spends the
// memory differently: the workers jointly own ONE copy of the logical
// sketch, shard j holding columns [j*W/N, (j+1)*W/N) of every row. Producers
// route each batch through the family's shared hash kernels and send every
// shard only the increments landing in its columns; a snapshot concatenates
// the slices instead of merging replicas. Because the very same counters get
// the very same additions, every read — estimates, quantiles, snapshot
// bytes, deltas — is bit-identical between the two modes for the same
// stream and seed (pinned by the cross-mode equivalence tests). See
// partition.go for the routing, barrier-atomicity and candidate-lane
// details, and docs/CLUSTER.md for when to pick which mode.
//
// Design notes (replica mode; partition mode differs as noted):
//
//   - Updates are routed round-robin at batch granularity, not hashed by
//     item. Linearity makes any assignment of updates to shards correct, and
//     round-robin gives perfect load balance with zero per-item routing cost.
//     Each producer handle keeps its own cursor (staggered at creation), so
//     producers spread across the shard ring without coordinating. In
//     partition mode routing is by column ownership instead — forced, since
//     each shard can apply only the increments whose counters it holds.
//   - Batching amortizes channel synchronization: a producer fills a pair of
//     key/delta columns (BatchSize, default 1024) and hands the pair to a
//     worker whole, so channel overhead is paid once per batch rather than
//     once per item, and the worker passes the columns straight to the
//     replica's UpdateBatch — the batched sketch path over the flat counter
//     layout and the hash kernels of internal/hashing. Drained columns are
//     recycled through a shared free list. Callers that already hold columns
//     (the server's wire decoder, benchmark harnesses) use UpdateColumns and
//     skip the per-record unpacking entirely.
//   - Snapshot uses a barrier protocol: a sync token is enqueued on every
//     shard's (FIFO) channel; each worker acknowledges it after applying all
//     earlier batches and then blocks until the merge has read its replica
//     (partition mode: until its column slice has been copied). Producers
//     keep ingesting while a barrier is in flight — their batches land after
//     the token, so the cut stays consistent without fencing the hot path.
//     Partition-mode batches span shards, so dispatch and barrier addition
//     serialize on an RWMutex to keep each batch on one side of the cut.
//   - Close blocks until every producer handle has been Closed, so the final
//     merge provably contains every produced update (the E11/E12 exactness
//     invariant, verified under `go test -race`).
//   - Replicas never share mutable state and handles never share buffers, so
//     the engine is race-free by construction.
//
// The same replicas could equally live in different processes: the sketch
// types' MarshalBinary/UnmarshalBinary (see internal/sketch) serialize the
// hash seeds alongside the counters, so a deserialized shard merges exactly
// like a local one. Any type satisfying LinearSketch — the four built-in
// families via NewCountMin/NewCountSketch/NewTracker/NewDyadic, or a
// caller's own — gets all of this through NewLinear.
//
// What the engine is, then, is three things and no more: local ingest
// (producer handles into the shards), the barrier Snapshot, and the
// epoch-pinned read path over it (ReadSnapshot/EstimateBatch, see read.go).
// It holds the updates ingested through its own producers and nothing else.
// A sketch that arrives from outside — a peer's snapshot or gossip delta, a
// recovered file — passes DecodeReplica, the compatibility gatekeeper, and
// stays with the caller: by the law above the sum can be taken whenever it
// is needed (internal/server keeps one such "foreign" sketch and adds it to
// the engine's cut when it serves). The same law makes the difference of two
// snapshots a sketch of exactly the updates between them, which is what
// gossiping sketchd peers ship; that too is cut by the caller, from cuts it
// retains, and costs the ingestion hot path nothing.
//
// The daemon takes every cut through ReadSnapshot: its read path, its
// replicator and its bootstrap handler share the one pinned cut of a
// generation, serve it, retain it as a gossip baseline and encode from it,
// all at once — which is sound only because nobody writes to it. Snapshot is
// for callers that need a sketch of their own to write to.
package engine
