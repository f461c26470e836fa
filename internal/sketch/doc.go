// Package sketch implements the hashing-based streaming summaries that the
// survey's Section 1 builds its narrative on, together with the classical
// deterministic and membership summaries they are compared against.
//
// Randomized linear sketches (the survey's focus):
//
//   - CountMin: d rows of w counters, pairwise-independent bucket hashes,
//     +delta updates, min estimator; supports the conservative-update
//     variant for insertion-only streams. [CM04]
//   - CountSketch: like Count-Min but with ±1 signed increments and a median
//     estimator, which makes the estimate unbiased. [CCF02]
//   - IBLT: invertible Bloom lookup table, which can list the entire
//     (small) sketched multiset exactly. [GM11]
//   - Dyadic: a hierarchy of Count-Min sketches over dyadic ranges that
//     answers range queries, quantiles, and finds heavy hitters without
//     enumerating the universe.
//
// Deterministic comparison baselines:
//
//   - MisraGries and SpaceSaving: counter-based frequent-item algorithms.
//   - BloomFilter and SpectralBloom: membership and multiplicity filters.
//
// All randomized sketches are linear: Update(item, d1) followed by
// Update(item, d2) is identical to Update(item, d1+d2), and two sketches
// built with the same hash functions can be merged by adding their counter
// arrays. The core package exposes this linearity as an explicit matrix.
// Linearity cuts both ways: the flat-counter families (CountMin,
// CountSketch, Dyadic, HeavyHitterTracker) also expose Sub and Scale, so
// the difference of two snapshots of one growing sketch — itself a valid
// sketch of exactly the updates between them — can be computed, shipped in
// the compressed KindDelta envelope (EncodeDelta/DecodeDelta: snapshot
// differences are mostly zero counters), and folded into a peer with the
// ordinary Merge. The non-linear summaries opt out: Bloom filters OR bits
// rather than add counters, and conservative-update Count-Min refuses
// Sub/Scale just as it refuses Merge.
//
// The update path is batch-first: counters live in one flat row-major array
// (row stride = width) and every family exposes UpdateBatch (AddBatch for
// the Bloom filter), which applies a whole column of keys and deltas per
// hash row through the batched kernels of internal/hashing, reusing a
// per-sketch scratch column so steady-state ingestion does not allocate.
// Batched ingestion is bit-identical to per-item ingestion — for any one
// counter the same deltas arrive in the same stream order — and per-item
// Update survives as a len-1 batch. The HeavyHitterTracker batches the same
// way up to its candidate heap, whose decision alone is per-item: it hashes
// a chunk once per row, reads each item's estimate off the counters it has
// just added to, and consults the heap only for items that can clear its
// floor (see HeavyHitterTracker.UpdateBatch).
package sketch
