// Package repro is a Go reproduction of the systems surveyed in
// "Sketching via Hashing: from Heavy Hitters to Compressive Sensing to
// Sparse Fourier Transform" (Piotr Indyk, PODS 2013).
//
// The library lives in internal/ packages, organized around the survey's
// sections:
//
//	internal/core     the unifying "sketch = sparse linear map" view
//	internal/hashing  multiply-shift, polynomial and tabulation hash families
//	                  with scalar and batched (HashBatch/SignBatch) kernels
//	internal/sketch   Count-Min, Count-Sketch, Misra-Gries, SpaceSaving,
//	                  Bloom filters, IBLT, dyadic heavy hitters & quantiles,
//	                  with flat counter layouts and batch-first UpdateBatch
//	                  hot paths, plus versioned binary serialization for the
//	                  linear sketches (hash seeds ride along, so a
//	                  deserialized sketch hashes identically and merges
//	                  exactly)
//	internal/engine   concurrent sharded ingestion: N workers with private
//	                  sketch replicas built from identical hash seeds, any
//	                  number of lock-free producer handles feeding them
//	                  columnar batches, and an exact linear merge on
//	                  Snapshot/Close
//	internal/server   the HTTP ingestion/snapshot daemon behind cmd/sketchd:
//	                  concurrently ingested batched updates, live queries,
//	                  snapshot export, exact cross-process merge, and gossip
//	                  delta-replication between peers (compressed snapshot
//	                  differences shipped on a timer, watermark-idempotent),
//	                  plus a thin Go client
//	internal/cs       compressed sensing: sparse-matrix decoders and dense
//	                  baselines (OMP, IHT, ISTA)
//	internal/jl       Johnson-Lindenstrauss embeddings, feature hashing,
//	                  SRHT, sketch-and-solve regression and low-rank
//	internal/sfft     sparse Fourier transform and sparse Hadamard transform
//	internal/fourier  FFT / FWHT / window-filter substrate
//	internal/bench    the E1-E10 and E15 experiment harness (see
//	                  internal/bench/DESIGN.md for each experiment's claim,
//	                  workload and metrics)
//
// Runnable entry points are in cmd/ (sketchd, sketchbench, hhtop, sfftdemo)
// and examples/ (quickstart, netflow, imaging, features, spectrum,
// aggregate). The benchmarks in bench_test.go regenerate every experiment
// table.
package repro
