package sketch

import (
	"fmt"
	"math"

	"repro/internal/hashing"
)

// Batched point queries. UpdateBatch made the write path a sparse
// matrix-vector product driven through the devirtualized hash kernels of
// internal/hashing; EstimateBatch is the same move applied to reads. A point
// query touches one counter per row, so a batch of point queries is, per row,
// one batched hash pass over the key column followed by a gather from that
// row's contiguous counters — instead of interface-dispatched per-key hashing
// with a strided walk down the rows.
//
// The batched estimates are defined to be bit-identical to the scalar ones:
// Count-Min takes the same min-of-rows with the same `<` comparison,
// Count-Sketch feeds the same sign-corrected row values through the same
// median (in-place insertion sort over a fixed-depth slice view — no sort
// allocation), and Dyadic reads its level-0 Count-Min. Property tests pin
// this per family.
//
// Two entry points with different ownership:
//
//   - EstimateBatch uses a scratch column owned by the sketch, like
//     UpdateBatch's — zero allocations steady-state, single goroutine at a
//     time.
//   - EstimateBatchWith takes caller-owned scratch and reads only the
//     counters and the shared hash functions, so any number of goroutines may
//     query one immutable snapshot concurrently, each with its own
//     EstimateScratch. This is what the engine's epoch-pinned read cache
//     uses: many readers, one shared snapshot, a scratch pool.

// EstimateScratch holds the reusable columns a batched estimate needs: one
// bucket column, one sign column (Count-Sketch only) and one key-major
// n x depth estimate matrix (Count-Sketch's per-key median input). It grows
// to the largest (batch, depth) seen and is then allocation-free. The zero
// value is ready to use. A scratch must not be shared by concurrent readers;
// give each reader its own (they are small) or pool them.
type EstimateScratch struct {
	buckets []uint64
	signs   []float64
	ests    []float64
}

// bucketColumn returns the scratch's bucket column, grown to n entries.
func (sc *EstimateScratch) bucketColumn(n int) []uint64 {
	if cap(sc.buckets) < n {
		sc.buckets = make([]uint64, n)
	}
	return sc.buckets[:n]
}

// signColumn returns the scratch's sign column, grown to n entries.
func (sc *EstimateScratch) signColumn(n int) []float64 {
	if cap(sc.signs) < n {
		sc.signs = make([]float64, n)
	}
	return sc.signs[:n]
}

// estMatrix returns the scratch's key-major estimate matrix, grown to n
// entries (callers pass keys*depth).
func (sc *EstimateScratch) estMatrix(n int) []float64 {
	if cap(sc.ests) < n {
		sc.ests = make([]float64, n)
	}
	return sc.ests[:n]
}

// BatchEstimator is the read-side counterpart of the engine's LinearSketch
// contract: a sketch that answers a whole column of point queries per call,
// bit-identical to its scalar Estimate. EstimateBatch uses sketch-owned
// scratch (single goroutine); EstimateBatchWith uses caller-owned scratch and
// is safe for concurrent readers of an immutable snapshot.
type BatchEstimator interface {
	Estimate(item uint64) float64
	EstimateBatch(items []uint64, dst []float64)
	EstimateBatchWith(items []uint64, dst []float64, sc *EstimateScratch)
}

// CountMin --------------------------------------------------------------------

// EstimateBatch writes the estimated count of items[i] to dst[i] for every i,
// equivalent to (and bit-identical with) calling Estimate item by item: each
// row hashes the whole key column through the batched kernels, then folds
// that row's counters into the running minima. The sketch-owned scratch is
// reused across calls, so steady-state querying does not allocate; like
// UpdateBatch it makes the call single-goroutine. The slices must have equal
// length; the sketch does not retain them.
func (cm *CountMin) EstimateBatch(items []uint64, dst []float64) {
	cm.EstimateBatchWith(items, dst, &cm.estScratch)
}

// EstimateBatchWith is EstimateBatch over caller-owned scratch. It reads only
// the counters and the shared hash functions, so concurrent readers may query
// one immutable sketch as long as each brings its own scratch.
func (cm *CountMin) EstimateBatchWith(items []uint64, dst []float64, sc *EstimateScratch) {
	if len(items) != len(dst) {
		panic(fmt.Sprintf("sketch: CountMin.EstimateBatch length mismatch (%d items, %d dst)", len(items), len(dst)))
	}
	if len(items) == 0 {
		return
	}
	buckets := sc.bucketColumn(len(items))
	for i := range dst {
		dst[i] = math.Inf(1)
	}
	for r := 0; r < cm.depth; r++ {
		hashRow(cm.hashes[r], cm.width, items, buckets)
		row := cm.row(r)
		for i, b := range buckets {
			if v := row[b]; v < dst[i] {
				dst[i] = v
			}
		}
	}
}

// CountSketch -----------------------------------------------------------------

// EstimateBatch writes the estimated count of items[i] to dst[i] for every i,
// equivalent to (and bit-identical with) per-item Estimate calls: each row
// hashes and signs the whole key column through the batched kernels and
// gathers its sign-corrected counters into a key-major estimate matrix, then
// each key's fixed-depth slice goes through the same in-place median the
// scalar path uses — no sort allocation. Sketch-owned scratch, reused across
// calls: zero allocations steady-state, single goroutine at a time.
func (cs *CountSketch) EstimateBatch(items []uint64, dst []float64) {
	cs.EstimateBatchWith(items, dst, &cs.estScratch)
}

// EstimateBatchWith is EstimateBatch over caller-owned scratch (safe for
// concurrent readers of an immutable sketch, one scratch per reader).
func (cs *CountSketch) EstimateBatchWith(items []uint64, dst []float64, sc *EstimateScratch) {
	if len(items) != len(dst) {
		panic(fmt.Sprintf("sketch: CountSketch.EstimateBatch length mismatch (%d items, %d dst)", len(items), len(dst)))
	}
	if len(items) == 0 {
		return
	}
	depth := cs.depth
	buckets := sc.bucketColumn(len(items))
	signs := sc.signColumn(len(items))
	ests := sc.estMatrix(len(items) * depth)
	for r := 0; r < depth; r++ {
		hashRow(cs.hashes[r], cs.width, items, buckets)
		hashing.SignBatch(cs.signs[r], items, signs)
		row := cs.row(r)
		for i, b := range buckets {
			ests[i*depth+r] = signs[i] * row[b]
		}
	}
	for i := range items {
		dst[i] = median(ests[i*depth : (i+1)*depth])
	}
}

// Dyadic ----------------------------------------------------------------------

// EstimateBatch writes the estimated count of items[i] to dst[i], reading the
// level-0 Count-Min exactly as the scalar Estimate does (level 0 sketches the
// identity prefixes, i.e. the items themselves). Single goroutine; the
// scratch belongs to the level-0 sketch.
func (d *Dyadic) EstimateBatch(items []uint64, dst []float64) {
	d.levels[0].EstimateBatch(items, dst)
}

// EstimateBatchWith is EstimateBatch over caller-owned scratch (safe for
// concurrent readers of an immutable hierarchy, one scratch per reader).
func (d *Dyadic) EstimateBatchWith(items []uint64, dst []float64, sc *EstimateScratch) {
	d.levels[0].EstimateBatchWith(items, dst, sc)
}

// HeavyHitterTracker ----------------------------------------------------------

// EstimateBatch writes the estimated count of items[i] to dst[i], reading the
// backing Count-Min exactly as the scalar Estimate does. Single goroutine;
// the scratch belongs to the backing sketch.
func (t *HeavyHitterTracker) EstimateBatch(items []uint64, dst []float64) {
	t.cm.EstimateBatch(items, dst)
}

// EstimateBatchWith is EstimateBatch over caller-owned scratch (safe for
// concurrent readers of an immutable tracker, one scratch per reader).
func (t *HeavyHitterTracker) EstimateBatchWith(items []uint64, dst []float64, sc *EstimateScratch) {
	t.cm.EstimateBatchWith(items, dst, sc)
}

var (
	_ BatchEstimator = (*CountMin)(nil)
	_ BatchEstimator = (*CountSketch)(nil)
	_ BatchEstimator = (*Dyadic)(nil)
	_ BatchEstimator = (*HeavyHitterTracker)(nil)
)
