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
// the compressed KindDelta envelope, and folded into a peer with the ordinary
// Merge. Snapshot differences are mostly zero counters, and small integers
// where updates are counts, so the envelope (EncodeDelta, AppendDeltaSince,
// DecodeDeltaInto; the grammar is in encoding.go) spells the inner encoding
// as uvarint tokens of three kinds: a zero run, a literal, and an 8-byte
// counter word that is the float64 of a nonzero integer |v| <= 2^53, written
// as v zigzagged — one byte for |v| < 16. Counters stay float64 and the inner
// bytes come back verbatim. The non-linear summaries opt out: Bloom filters
// OR bits rather than add counters, and conservative-update Count-Min
// refuses Sub/Scale just as it refuses Merge.
//
// The update path is batch-first: counters live in one flat row-major array
// (row stride = width) and every family exposes UpdateBatch (AddBatch for
// the Bloom filter), which applies a whole column of keys and deltas, reusing
// per-sketch scratch so steady-state ingestion does not allocate. Batched
// ingestion is bit-identical to per-item ingestion — for any one counter the
// same deltas arrive in the same stream order — and per-item Update survives
// as a len-1 batch. Three pieces carry the hot path:
//
//   - The row-set kernel. Each flat-counter sketch compiles its row hashers
//     into one hashing.Rows at construction (shared with its clones), and
//     every batched path — UpdateBatch, EstimateBatchWith, ScatterColumns,
//     the dyadic levels — calls Rows.Index on indexChunk keys at a time to
//     get every row's flat counter indices in one pass, then walks the
//     counters row by row off that L1-resident matrix. The default rows
//     (pairwise polynomial, power-of-two width) take the kernel's fused
//     loop, which reduces a*x + b mod 2^61-1 once rather than twice. One
//     reduction suffices because the folded sum is below 2^63, so a fold and
//     a conditional subtraction reach the canonical residue — the same
//     bucket, not a new hash family: no fixture or seed changes.
//
//   - The tracker's two-pass chunk. HeavyHitterTracker.UpdateBatch hashes a
//     chunk once, then runs a counter pass (add each delta to the item's
//     counters, keep the minimum of the values written: the item's estimate
//     after its own update) and a candidate pass over those estimates in
//     item order (floor gate, then Offer). Only the heap decision is
//     per-item, and it may run after the chunk's adds because Offer is
//     counter-blind: it reads and writes the candidate store alone, so
//     deferring it changes neither what the store sees nor what the counters
//     receive.
//
//   - The table-indexed heap. CandidateSet is a flat min-heap with
//     container/heap's exact sift order, indexed by an open-addressed table
//     (linear probing, backward-shift delete, at least four slots per key)
//     whose slot numbers ride in the heap entries: a sift swap stores two
//     table words and hashes nothing.
//
// tracker_oracle_test.go holds the tracker as the seed wrote it — hash per
// row to add, hash again to estimate, a map of heap nodes — and checks
// counters, mass and heap order against it after every batch.
package sketch
