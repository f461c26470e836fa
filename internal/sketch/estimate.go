package sketch

import (
	"fmt"
	"math"

	"repro/internal/hashing"
)

// Batched point queries. UpdateBatch made the write path a sparse
// matrix-vector product driven through the row-set kernel of
// internal/hashing; EstimateBatch is the same move applied to reads. A point
// query touches one counter per row, so a batch of point queries is, chunk by
// chunk, one hash pass that yields every row's counter indices followed by a
// gather per row — instead of interface-dispatched per-key hashing with a
// strided walk down the rows.
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

// EstimateScratch holds the reusable scratch a batched estimate needs: the
// index matrix (see indexRows), and for Count-Sketch one chunk's sign column
// and key-major keys x depth estimate matrix (the per-key median input). It
// grows to the deepest sketch seen, at most indexChunk keys wide, and is then
// allocation-free. The zero value is ready to use. A scratch must not be
// shared by concurrent readers; give each reader its own (they are small) or
// pool them.
type EstimateScratch struct {
	idx   []uint64
	signs []float64
	ests  []float64
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
// equivalent to (and bit-identical with) calling Estimate item by item: the
// row-set kernel hashes a chunk of keys into every row's counter indices,
// then each row folds its counters into the running minima. The sketch-owned
// scratch is reused across calls, so steady-state querying does not allocate;
// like UpdateBatch it makes the call single-goroutine. The slices must have
// equal length; the sketch does not retain them.
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
	for i := range dst {
		dst[i] = math.Inf(1)
	}
	counts := cm.counts
	idx, stride := indexRows(&sc.idx, cm.depth, len(items))
	for len(items) > 0 {
		n := min(len(items), stride)
		cm.rows.Index(items[:n], idx, stride)
		out := dst[:n]
		// Each row folds in with the builtin minimum, which does not branch
		// on the data. It parts from Estimate's `<` fold only around NaN and
		// signed zeros (see addAndMin), and then leaves NaN or zero behind:
		// those keys are folded again by definition.
		for r := 0; r < cm.depth; r++ {
			for i, j := range idx[r*stride:][:n] {
				out[i] = min(out[i], counts[j])
			}
		}
		for i, e := range out {
			if e == 0 || e != e {
				e = math.Inf(1)
				for j := i; j < len(idx); j += stride {
					if v := counts[idx[j]]; v < e {
						e = v
					}
				}
				out[i] = e
			}
		}
		items, dst = items[n:], dst[n:]
	}
}

// CountSketch -----------------------------------------------------------------

// EstimateBatch writes the estimated count of items[i] to dst[i] for every i,
// equivalent to (and bit-identical with) per-item Estimate calls: chunk by
// chunk, the row-set kernel hashes the keys, each row signs them and gathers
// its sign-corrected counters into a key-major estimate matrix, then each
// key's fixed-depth slice goes through the same in-place median the scalar
// path uses — no sort allocation. Sketch-owned scratch, reused across
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
	depth, counts := cs.depth, cs.counts
	idx, stride := indexRows(&sc.idx, depth, len(items))
	signs := sc.signColumn(stride)
	ests := sc.estMatrix(stride * depth)
	for len(items) > 0 {
		n := min(len(items), stride)
		cs.rows.Index(items[:n], idx, stride)
		for r := 0; r < depth; r++ {
			hashing.SignBatch(cs.signs[r], items[:n], signs)
			for i, j := range idx[r*stride:][:n] {
				ests[i*depth+r] = signs[i] * counts[j]
			}
		}
		for i := range dst[:n] {
			dst[i] = median(ests[i*depth : (i+1)*depth])
		}
		items, dst = items[n:], dst[n:]
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
