package engine

import (
	"fmt"

	"repro/internal/sketch"
)

// Measurement views a sketch snapshot as the linear measurement it is: the
// flat counter array is exactly y = A·x for the sparse hashing matrix A the
// sketch's hash functions define over a universe [0, n). It satisfies the
// cs.HashOperator interface structurally (Dims/MulVec/TMulVec plus the
// bucket/sign structure), so any internal/cs recoverer — sketch decoding,
// SMP, OMP, IHT, ISTA — can run directly over live server counters.
//
// The adapter never copies the counters: Measurements returns the sketch's
// own flat backing store, and MulVec/TMulVec/Entry recompute rows from the
// sketch's hash functions on demand. A Measurement is therefore only valid
// as a consistent y-vector while the underlying snapshot is not being
// updated, which is what the engine's barrier snapshots guarantee.
type Measurement struct {
	n      int
	width  int
	depth  int
	signed bool
	cm     *sketch.CountMin
	cs     *sketch.CountSketch
}

// NewCountMinMeasurement wraps a Count-Min snapshot as a measurement over
// the universe [0, n). Conservative-update sketches are rejected: their
// counters are not a linear function of the stream, so y ≠ A·x and recovery
// guarantees do not apply.
func NewCountMinMeasurement(cm *sketch.CountMin, n int) (*Measurement, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: measurement universe must be positive, got %d", n)
	}
	if cm.Conservative() {
		return nil, fmt.Errorf("engine: conservative-update CountMin is not linear; recovery requires y = A·x")
	}
	return &Measurement{n: n, width: cm.Width(), depth: cm.Depth(), cm: cm}, nil
}

// NewCountSketchMeasurement wraps a Count-Sketch snapshot as a signed
// measurement over the universe [0, n).
func NewCountSketchMeasurement(cs *sketch.CountSketch, n int) (*Measurement, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: measurement universe must be positive, got %d", n)
	}
	return &Measurement{n: n, width: cs.Width(), depth: cs.Depth(), signed: true, cs: cs}, nil
}

// NewTrackerMeasurement wraps the Count-Min backing a heavy-hitter tracker
// snapshot as a measurement over the universe [0, n).
func NewTrackerMeasurement(t *sketch.HeavyHitterTracker, n int) (*Measurement, error) {
	return NewCountMinMeasurement(t.Backing(), n)
}

// Dims reports the measurement dimensions: width·depth rows, n columns.
func (m *Measurement) Dims() (rows, cols int) { return m.width * m.depth, m.n }

// RowsPerColumn reports the number of hash rows (non-zeros per column).
func (m *Measurement) RowsPerColumn() int { return m.depth }

// Signed reports whether the measurement carries ±1 signs (Count-Sketch).
func (m *Measurement) Signed() bool { return m.signed }

// Universe reports the declared signal dimension n.
func (m *Measurement) Universe() int { return m.n }

// Entry returns the measurement row and ±1 coefficient of column j in hash
// block b. Rows are laid out block-major to match the sketches' flat
// row-major counter arrays: block b occupies rows [b·width, (b+1)·width).
func (m *Measurement) Entry(block int, j uint64) (row int, val float64) {
	if m.signed {
		return block*m.width + m.cs.RowBucket(block, j), m.cs.RowSign(block, j)
	}
	return block*m.width + m.cm.RowBucket(block, j), 1
}

// Measurements returns the snapshot's flat counter array — the y vector —
// as the sketch's CounterData: it indexes identically to the rows produced by
// Entry and MulVec. For a Count-Sketch or a widened Count-Min it is the live
// backing store, not copied, and callers must not modify it; a Count-Min
// still counting in int32 gives a float64 copy.
func (m *Measurement) Measurements() []float64 {
	if m.signed {
		return m.cs.CounterData()
	}
	return m.cm.CounterData()
}

// MulVec applies the hashing matrix: each coordinate j of x lands in one
// bucket per hash block, signed for Count-Sketch measurements.
func (m *Measurement) MulVec(x []float64) []float64 {
	if len(x) != m.n {
		panic(fmt.Sprintf("engine: Measurement.MulVec input has length %d, universe is %d", len(x), m.n))
	}
	y := make([]float64, m.width*m.depth)
	for j, v := range x {
		if v == 0 {
			continue
		}
		for b := 0; b < m.depth; b++ {
			row, val := m.Entry(b, uint64(j))
			y[row] += val * v
		}
	}
	return y
}

// TMulVec applies the transpose: coordinate j collects the (signed) contents
// of its bucket in every hash block.
func (m *Measurement) TMulVec(y []float64) []float64 {
	if len(y) != m.width*m.depth {
		panic(fmt.Sprintf("engine: Measurement.TMulVec input has length %d, operator has %d rows", len(y), m.width*m.depth))
	}
	out := make([]float64, m.n)
	for j := 0; j < m.n; j++ {
		var s float64
		for b := 0; b < m.depth; b++ {
			row, val := m.Entry(b, uint64(j))
			s += val * y[row]
		}
		out[j] = s
	}
	return out
}
