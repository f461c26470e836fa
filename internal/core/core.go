// Package core encodes the unifying observation of the survey: hashing a
// multiset into an array of counters is a linear map c = A·x, where x is the
// frequency (characteristic) vector of the multiset and A is a sparse matrix
// with one non-zero per column per hash repetition.
//
// The package defines
//
//   - LinearSketch, the interface every hashing-based summary in the
//     repository satisfies (update by (index, delta), read the counter
//     vector, apply to an explicit vector);
//   - HashMatrix, an explicit m×n sparse measurement matrix built from a
//     bucket hash and an optional sign hash, which is simultaneously a
//     mat.Operator (for the compressed-sensing and dimensionality-reduction
//     code) and a streaming sketch;
//   - adapters that materialize the Count-Min and Count-Sketch structures of
//     package sketch as explicit matrices, so the equivalence
//     "sketch(stream) == A · frequencyVector(stream)" is not just a slogan
//     but a testable identity.
package core

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/mat"
	"repro/internal/sketch"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// LinearSketch is a summary c = A·x maintained under streaming updates to x.
// Implementations must be linear: the final state depends only on the net
// frequency vector, not on how updates were ordered or grouped.
type LinearSketch interface {
	// UpdateEntry adds delta to coordinate index of the underlying vector x.
	UpdateEntry(index uint64, delta float64)
	// Measurements returns (a copy of) the current measurement vector c.
	Measurements() []float64
	// MeasurementCount returns the number of measurements m = len(c).
	MeasurementCount() int
	// InputDim returns the ambient dimension n of the vectors being sketched,
	// or 0 if the sketch does not fix one (pure streaming summaries).
	InputDim() int
}

// HashMatrix is an explicit m×n hashing matrix: column j has exactly
// rows-per-column non-zeros, one per "row block", each ±1 (or +1 when
// unsigned). It implements both mat.Operator and LinearSketch, and it is the
// object that makes the survey's equivalence concrete: a Count-Min sketch is
// Apply with unsigned entries, a Count-Sketch is Apply with signed entries,
// and compressed sensing recovers x back from the product.
type HashMatrix struct {
	n       int
	rowsPer int // number of hash repetitions (blocks)
	width   int // buckets per block; m = rowsPer*width
	signed  bool
	hashes  []hashing.Hasher
	signs   []hashing.SignHasher

	// measurements holds the streaming state when used as a LinearSketch.
	measurements []float64
}

// HashMatrixOption configures a HashMatrix.
type HashMatrixOption func(*hashMatrixConfig)

type hashMatrixConfig struct {
	family hashing.Family
	signed bool
}

// WithSigns makes the matrix entries ±1 (Count-Sketch style) instead of +1
// (Count-Min style).
func WithSigns() HashMatrixOption {
	return func(c *hashMatrixConfig) { c.signed = true }
}

// WithHashFamily selects the hash family for buckets and signs.
func WithHashFamily(f hashing.Family) HashMatrixOption {
	return func(c *hashMatrixConfig) { c.family = f }
}

// NewHashMatrix creates an (rowsPer*width) × n hashing matrix.
func NewHashMatrix(r *xrand.Rand, n, width, rowsPer int, opts ...HashMatrixOption) *HashMatrix {
	if n < 1 || width < 1 || rowsPer < 1 {
		panic(fmt.Sprintf("core: NewHashMatrix requires n, width, rowsPer >= 1 (got %d, %d, %d)", n, width, rowsPer))
	}
	cfg := hashMatrixConfig{family: hashing.FamilyPoly2}
	for _, o := range opts {
		o(&cfg)
	}
	h := &HashMatrix{
		n:            n,
		rowsPer:      rowsPer,
		width:        width,
		signed:       cfg.signed,
		hashes:       make([]hashing.Hasher, rowsPer),
		signs:        make([]hashing.SignHasher, rowsPer),
		measurements: make([]float64, rowsPer*width),
	}
	for i := 0; i < rowsPer; i++ {
		h.hashes[i] = hashing.NewHasher(cfg.family, r, uint64(width))
		h.signs[i] = hashing.NewSigner(cfg.family, r)
	}
	return h
}

// Dims returns (m, n).
func (h *HashMatrix) Dims() (int, int) { return h.rowsPer * h.width, h.n }

// Signed reports whether the matrix has ±1 entries.
func (h *HashMatrix) Signed() bool { return h.signed }

// RowsPerColumn returns the number of non-zeros per column.
func (h *HashMatrix) RowsPerColumn() int { return h.rowsPer }

// Width returns the number of buckets per hash repetition.
func (h *HashMatrix) Width() int { return h.width }

// Entry returns the (row, value) of column j's single non-zero in hash
// repetition block. It exposes the hashing structure to decoders (package cs)
// that need to read individual buckets of an arbitrary measurement vector.
func (h *HashMatrix) Entry(block int, j uint64) (int, float64) {
	if block < 0 || block >= h.rowsPer {
		panic(fmt.Sprintf("core: Entry block %d out of range %d", block, h.rowsPer))
	}
	if j >= uint64(h.n) {
		panic(fmt.Sprintf("core: Entry column %d out of range %d", j, h.n))
	}
	return h.entry(block, j)
}

// entry returns (row, value) of column j's non-zero in block b.
func (h *HashMatrix) entry(block int, j uint64) (int, float64) {
	row := block*h.width + int(h.hashes[block].Hash(j)%uint64(h.width))
	val := 1.0
	if h.signed {
		val = h.signs[block].Sign(j)
	}
	return row, val
}

// MulVec returns A*x.
func (h *HashMatrix) MulVec(x []float64) []float64 {
	if len(x) != h.n {
		panic(fmt.Sprintf("core: MulVec dimension mismatch: n=%d, len(x)=%d", h.n, len(x)))
	}
	out := make([]float64, h.rowsPer*h.width)
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		for b := 0; b < h.rowsPer; b++ {
			row, val := h.entry(b, uint64(j))
			out[row] += val * xj
		}
	}
	return out
}

// TMulVec returns A^T*y.
func (h *HashMatrix) TMulVec(y []float64) []float64 {
	m, _ := h.Dims()
	if len(y) != m {
		panic(fmt.Sprintf("core: TMulVec dimension mismatch: m=%d, len(y)=%d", m, len(y)))
	}
	out := make([]float64, h.n)
	for j := 0; j < h.n; j++ {
		var s float64
		for b := 0; b < h.rowsPer; b++ {
			row, val := h.entry(b, uint64(j))
			s += val * y[row]
		}
		out[j] = s
	}
	return out
}

// UpdateEntry adds delta to coordinate index of the sketched vector.
func (h *HashMatrix) UpdateEntry(index uint64, delta float64) {
	if index >= uint64(h.n) {
		panic(fmt.Sprintf("core: UpdateEntry index %d out of range %d", index, h.n))
	}
	for b := 0; b < h.rowsPer; b++ {
		row, val := h.entry(b, index)
		h.measurements[row] += val * delta
	}
}

// Measurements returns a copy of the streaming measurement vector.
func (h *HashMatrix) Measurements() []float64 { return vec.Clone(h.measurements) }

// MeasurementCount returns m.
func (h *HashMatrix) MeasurementCount() int { return h.rowsPer * h.width }

// InputDim returns n.
func (h *HashMatrix) InputDim() int { return h.n }

// Reset clears the streaming measurement state.
func (h *HashMatrix) Reset() {
	for i := range h.measurements {
		h.measurements[i] = 0
	}
}

// ToCSR materializes the matrix explicitly (tests, small problems, and the
// experiments that compare explicit sparse matrices to dense ones).
func (h *HashMatrix) ToCSR() *mat.CSR {
	m, n := h.Dims()
	coo := mat.NewCOO(m, n)
	for j := 0; j < n; j++ {
		for b := 0; b < h.rowsPer; b++ {
			row, val := h.entry(b, uint64(j))
			coo.Add(row, j, val)
		}
	}
	return coo.ToCSR()
}

// Estimate returns the hashing estimate of x[index] from the streaming
// measurements: min over blocks for unsigned matrices (Count-Min estimator),
// median of sign-corrected buckets for signed matrices (Count-Sketch
// estimator).
func (h *HashMatrix) Estimate(index uint64) float64 {
	if index >= uint64(h.n) {
		panic(fmt.Sprintf("core: Estimate index %d out of range %d", index, h.n))
	}
	ests := make([]float64, h.rowsPer)
	for b := 0; b < h.rowsPer; b++ {
		row, val := h.entry(b, index)
		ests[b] = val * h.measurements[row]
	}
	if h.signed {
		return vec.Median(ests)
	}
	min := ests[0]
	for _, v := range ests[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Adapters --------------------------------------------------------------------

// CountMinSketchAdapter presents a sketch.CountMin over a fixed universe
// [0, n) as a LinearSketch whose matrix can be materialized explicitly.
type CountMinSketchAdapter struct {
	CM *sketch.CountMin
	N  int
}

// NewCountMinAdapter wraps an existing Count-Min sketch.
func NewCountMinAdapter(cm *sketch.CountMin, n int) *CountMinSketchAdapter {
	if n < 1 {
		panic("core: NewCountMinAdapter requires n >= 1")
	}
	return &CountMinSketchAdapter{CM: cm, N: n}
}

// UpdateEntry adds delta to coordinate index.
func (a *CountMinSketchAdapter) UpdateEntry(index uint64, delta float64) {
	a.CM.Update(index, delta)
}

// Measurements flattens the sketch's counter matrix row-major into a vector.
func (a *CountMinSketchAdapter) Measurements() []float64 {
	return vec.Clone(a.CM.CounterData())
}

// MeasurementCount returns the number of counters.
func (a *CountMinSketchAdapter) MeasurementCount() int { return a.CM.Size() }

// InputDim returns the declared universe size.
func (a *CountMinSketchAdapter) InputDim() int { return a.N }

// Matrix materializes the sketch's measurement matrix A so that
// Measurements() == A * x for the frequency vector x over [0, N).
func (a *CountMinSketchAdapter) Matrix() *mat.CSR {
	coo := mat.NewCOO(a.CM.Size(), a.N)
	for j := 0; j < a.N; j++ {
		for row := 0; row < a.CM.Depth(); row++ {
			bucket := a.CM.RowBucket(row, uint64(j))
			coo.Add(row*a.CM.Width()+bucket, j, 1)
		}
	}
	return coo.ToCSR()
}

// CountSketchAdapter presents a sketch.CountSketch over a fixed universe
// [0, n) as a LinearSketch with an explicit ±1 matrix.
type CountSketchAdapter struct {
	CS *sketch.CountSketch
	N  int
}

// NewCountSketchAdapter wraps an existing Count-Sketch.
func NewCountSketchAdapter(cs *sketch.CountSketch, n int) *CountSketchAdapter {
	if n < 1 {
		panic("core: NewCountSketchAdapter requires n >= 1")
	}
	return &CountSketchAdapter{CS: cs, N: n}
}

// UpdateEntry adds delta to coordinate index.
func (a *CountSketchAdapter) UpdateEntry(index uint64, delta float64) {
	a.CS.Update(index, delta)
}

// Measurements flattens the counter matrix row-major.
func (a *CountSketchAdapter) Measurements() []float64 {
	return vec.Clone(a.CS.CounterData())
}

// MeasurementCount returns the number of counters.
func (a *CountSketchAdapter) MeasurementCount() int { return a.CS.Size() }

// InputDim returns the declared universe size.
func (a *CountSketchAdapter) InputDim() int { return a.N }

// Matrix materializes the ±1 measurement matrix.
func (a *CountSketchAdapter) Matrix() *mat.CSR {
	coo := mat.NewCOO(a.CS.Size(), a.N)
	for j := 0; j < a.N; j++ {
		for row := 0; row < a.CS.Depth(); row++ {
			bucket := a.CS.RowBucket(row, uint64(j))
			sign := a.CS.RowSign(row, uint64(j))
			coo.Add(row*a.CS.Width()+bucket, j, sign)
		}
	}
	return coo.ToCSR()
}

// SketchVector runs a whole frequency vector through any LinearSketch (a
// convenience for tests and experiments that start from an explicit x rather
// than a stream).
func SketchVector(s LinearSketch, x []float64) {
	for i, v := range x {
		if v != 0 {
			s.UpdateEntry(uint64(i), v)
		}
	}
}
