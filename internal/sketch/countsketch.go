package sketch

import (
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/xrand"
)

// CountSketch is the sketch of Charikar, Chen and Farach-Colton [CCF02]:
// like Count-Min it keeps d rows of w counters, but each update is
// multiplied by a pairwise-independent ±1 sign, and the point-query
// estimator is the median over rows of sign-corrected counters.
//
// The signed increments make the estimator unbiased, and its error scales
// with the l2 norm of the residual frequency vector rather than the l1 norm,
// which is why the survey singles it out as the sketch behind compressed
// sensing with sparse matrices [CM06].
//
// Like CountMin, the counters are one flat contiguous array (row r at
// counts[r*width:(r+1)*width]); the batched paths hash through the row-set
// kernel of internal/hashing and sign through its per-row sign kernels,
// bit-identical to the per-item path.
type CountSketch struct {
	width  int
	depth  int
	counts []float64 // flat, row-major: row r at counts[r*width:(r+1)*width]
	hashes []hashing.Hasher
	rows   *hashing.Rows // the row-set kernel over hashes, shared with clones
	signs  []hashing.SignHasher
	// seed and family fully determine the hash and sign functions (drawn in a
	// fixed order from xrand.New(seed)); see MarshalBinary.
	seed   uint64
	family hashing.Family

	// idxScratch/signScratch are the reusable index matrix (see indexRows)
	// and sign column of UpdateBatch (zero allocations steady-state). Writes
	// are single-goroutine like the counters; reads never touch them.
	idxScratch  []uint64
	signScratch []float64
	// oneKey/oneDelta back the per-item Update, which is a len-1 UpdateBatch.
	oneKey   [1]uint64
	oneDelta [1]float64
	// estScratch backs EstimateBatch (see estimate.go); sketch-owned, single
	// goroutine, zero allocations steady-state. Concurrent readers use
	// EstimateBatchWith with their own scratch.
	estScratch EstimateScratch
}

// CountSketchOption configures a CountSketch at construction time.
type CountSketchOption func(*countSketchConfig)

type countSketchConfig struct {
	family hashing.Family
}

// WithCountSketchHashFamily selects the hash family used for buckets/signs.
func WithCountSketchHashFamily(f hashing.Family) CountSketchOption {
	return func(c *countSketchConfig) { c.family = f }
}

// NewCountSketch creates a Count-Sketch with the given width and depth.
func NewCountSketch(r *xrand.Rand, width, depth int, opts ...CountSketchOption) *CountSketch {
	if width < 1 || depth < 1 {
		panic(fmt.Sprintf("sketch: NewCountSketch requires width, depth >= 1 (got %d, %d)", width, depth))
	}
	cfg := countSketchConfig{family: hashing.FamilyPoly2}
	for _, o := range opts {
		o(&cfg)
	}
	return newCountSketchFromSeed(r.Uint64(), width, depth, cfg.family)
}

// newCountSketchFromSeed builds the sketch deterministically from a hash
// seed; it is shared by NewCountSketch and UnmarshalBinary so that a
// deserialized sketch hashes and signs identically to the original.
func newCountSketchFromSeed(seed uint64, width, depth int, family hashing.Family) *CountSketch {
	hr := xrand.New(seed)
	cs := &CountSketch{
		width:  width,
		depth:  depth,
		counts: make([]float64, width*depth),
		hashes: make([]hashing.Hasher, depth),
		signs:  make([]hashing.SignHasher, depth),
		seed:   seed,
		family: family,
	}
	for i := 0; i < depth; i++ {
		cs.hashes[i] = hashing.NewHasher(family, hr, uint64(width))
		cs.signs[i] = hashing.NewSigner(family, hr)
	}
	cs.rows = hashing.NewRows(cs.hashes, width)
	return cs
}

// NewCountSketchWithError creates a Count-Sketch sized so that point-query
// error is at most eps*||x||_2 with probability at least 1-delta:
// width = ceil(3/eps^2), depth = ceil(ln(1/delta)) rounded to odd.
func NewCountSketchWithError(r *xrand.Rand, eps, delta float64, opts ...CountSketchOption) *CountSketch {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("sketch: NewCountSketchWithError requires eps, delta in (0,1)")
	}
	width := int(math.Ceil(3 / (eps * eps)))
	depth := int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	if depth%2 == 0 {
		depth++ // odd depth gives a well-defined median
	}
	return NewCountSketch(r, width, depth, opts...)
}

// Width returns the number of counters per row.
func (cs *CountSketch) Width() int { return cs.width }

// Depth returns the number of rows.
func (cs *CountSketch) Depth() int { return cs.depth }

// Size returns the total number of counters.
func (cs *CountSketch) Size() int { return cs.width * cs.depth }

// row returns the counter slice of one row (a view into the flat array).
func (cs *CountSketch) row(r int) []float64 {
	return cs.counts[r*cs.width : (r+1)*cs.width]
}

func (cs *CountSketch) bucket(row int, item uint64) int {
	return int(cs.hashes[row].Hash(item) % uint64(cs.width))
}

// Update adds delta to the item's count. Deltas of any sign are supported
// (turnstile model). It is a len-1 UpdateBatch.
func (cs *CountSketch) Update(item uint64, delta float64) {
	cs.oneKey[0] = item
	cs.oneDelta[0] = delta
	cs.UpdateBatch(cs.oneKey[:], cs.oneDelta[:])
}

// UpdateBatch adds deltas[i] to items[i]'s count for every i, equivalent to
// (and bit-identical with) per-item Update calls: chunk by chunk, the row-set
// kernel hashes the keys into every row's counter indices, then each row
// signs the chunk and scatters the signed deltas into its counters. The
// scratch is reused across calls, so steady-state ingestion does not
// allocate. The slices must have equal length; the sketch does not retain
// them.
func (cs *CountSketch) UpdateBatch(items []uint64, deltas []float64) {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("sketch: CountSketch.UpdateBatch length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	if len(items) == 0 {
		return
	}
	counts := cs.counts
	idx, stride := indexRows(&cs.idxScratch, cs.depth, len(items))
	if cap(cs.signScratch) < stride {
		cs.signScratch = make([]float64, stride)
	}
	signs := cs.signScratch[:stride]
	for len(items) > 0 {
		n := min(len(items), stride)
		cs.rows.Index(items[:n], idx, stride)
		for r := 0; r < cs.depth; r++ {
			hashing.SignBatch(cs.signs[r], items[:n], signs)
			for i, j := range idx[r*stride:][:n] {
				counts[j] += signs[i] * deltas[i]
			}
		}
		items, deltas = items[n:], deltas[n:]
	}
}

// Estimate returns the estimated count of item: the median over rows of the
// sign-corrected counter values. The estimate is unbiased.
func (cs *CountSketch) Estimate(item uint64) float64 {
	ests := make([]float64, cs.depth)
	for r := 0; r < cs.depth; r++ {
		ests[r] = cs.signs[r].Sign(item) * cs.counts[r*cs.width+cs.bucket(r, item)]
	}
	return median(ests)
}

// EstimateRow returns the row-r estimate alone (used by recovery algorithms
// that need per-row values).
func (cs *CountSketch) EstimateRow(row int, item uint64) float64 {
	return cs.signs[row].Sign(item) * cs.counts[row*cs.width+cs.bucket(row, item)]
}

// F2 returns an estimate of the second frequency moment ||x||_2^2 of the
// sketched vector: the median over rows of the sum of squared counters
// (the AMS estimator specialized to the Count-Sketch layout). The estimate
// is unbiased per row and concentrates as the width grows.
func (cs *CountSketch) F2() float64 {
	rows := make([]float64, cs.depth)
	for r := 0; r < cs.depth; r++ {
		var s float64
		for _, v := range cs.row(r) {
			s += v * v
		}
		rows[r] = s
	}
	return median(rows)
}

// InnerProduct estimates <x, y> between the vectors summarized by cs and
// other, as the median over rows of the row-wise counter dot products. The
// sketches must share hash and sign functions (other created via Clone).
func (cs *CountSketch) InnerProduct(other *CountSketch) (float64, error) {
	if cs.width != other.width || cs.depth != other.depth {
		return 0, fmt.Errorf("sketch: inner product requires equal dimensions (%dx%d vs %dx%d)",
			cs.depth, cs.width, other.depth, other.width)
	}
	rows := make([]float64, cs.depth)
	for r := 0; r < cs.depth; r++ {
		a, b := cs.row(r), other.row(r)
		var s float64
		for j := range a {
			s += a[j] * b[j]
		}
		rows[r] = s
	}
	return median(rows), nil
}

// Merge adds the counters of other into cs. Both sketches must share hash
// functions (other created via Clone) and equal dimensions.
// CompatibleWith returns nil when other was built with the same dimensions,
// hash seed and family as cs — the precondition for an exact merge. Merge
// itself only checks dimensions and trusts in-process callers (clones of one
// prototype); transports accepting serialized sketches from possibly
// misconfigured peers should call CompatibleWith first.
func (cs *CountSketch) CompatibleWith(other *CountSketch) error {
	if cs.width != other.width || cs.depth != other.depth {
		return fmt.Errorf("sketch: dimension mismatch: %dx%d vs %dx%d (width x depth)",
			cs.width, cs.depth, other.width, other.depth)
	}
	if cs.seed != other.seed || cs.family != other.family {
		return fmt.Errorf("sketch: hash mismatch: sketches were not built from the same seed/family and cannot be merged")
	}
	return nil
}

func (cs *CountSketch) Merge(other *CountSketch) error {
	if cs.width != other.width || cs.depth != other.depth {
		return fmt.Errorf("sketch: cannot merge CountSketch of different dimensions")
	}
	for i, v := range other.counts {
		cs.counts[i] += v
	}
	return nil
}

// Sub subtracts the counters of other from cs — the inverse of Merge, with
// the same contract: shared hash and sign functions, dimensions checked.
// The difference of two snapshots of one growing sketch is itself a valid
// Count-Sketch of the updates between them (linearity).
func (cs *CountSketch) Sub(other *CountSketch) error {
	if cs.width != other.width || cs.depth != other.depth {
		return fmt.Errorf("sketch: cannot subtract CountSketch of different dimensions")
	}
	for i, v := range other.counts {
		cs.counts[i] -= v
	}
	return nil
}

// Scale multiplies every counter by c; Scale(-1) negates the sketch, so a
// negated clone merges as a subtraction.
func (cs *CountSketch) Scale(c float64) {
	for i := range cs.counts {
		cs.counts[i] *= c
	}
}

// Clone returns an empty sketch sharing cs's hash and sign functions. The
// clone gets its own counters and scratch, so clones ingest concurrently.
func (cs *CountSketch) Clone() *CountSketch {
	return &CountSketch{
		width:  cs.width,
		depth:  cs.depth,
		counts: make([]float64, len(cs.counts)),
		hashes: cs.hashes,
		rows:   cs.rows,
		signs:  cs.signs,
		seed:   cs.seed,
		family: cs.family,
	}
}

// Copy returns a deep copy of cs: same hash and sign functions, its own
// counters holding the current values.
func (cs *CountSketch) Copy() *CountSketch {
	out := cs.Clone()
	copy(out.counts, cs.counts)
	return out
}

// CounterData returns the flat row-major counter array (the live backing
// store; callers must not modify it).
func (cs *CountSketch) CounterData() []float64 { return cs.counts }

// RowBucket exposes the bucket an item maps to in a row (for the matrix view).
func (cs *CountSketch) RowBucket(row int, item uint64) int {
	if row < 0 || row >= cs.depth {
		panic("sketch: RowBucket row out of range")
	}
	return cs.bucket(row, item)
}

// RowSign exposes the ±1 sign of an item in a row (for the matrix view).
func (cs *CountSketch) RowSign(row int, item uint64) float64 {
	if row < 0 || row >= cs.depth {
		panic("sketch: RowSign row out of range")
	}
	return cs.signs[row].Sign(item)
}

// median returns the median of values; for even counts it averages the two
// middle elements, which keeps the estimator unbiased. The input slice is
// sorted in place (it is always a scratch slice here).
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		panic("sketch: median of empty slice")
	}
	insertionSort(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// insertionSort sorts a small slice in place; sketch depths are tiny (< 30)
// so this is faster than sort.Float64s and allocation-free.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
