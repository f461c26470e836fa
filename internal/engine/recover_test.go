package engine

import (
	"math"
	"testing"

	"repro/internal/cs"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// The adapter must satisfy the recoverers' structural interface at compile
// time, not just by luck at the call site.
var _ cs.HashOperator = (*Measurement)(nil)

// TestMeasurementIsZeroCopy asserts that Measurements aliases the live
// backing store of a sketch that counts in float64 rather than copying it. A
// Count-Min counting in int32 has no float64 store to alias: its measurements
// are a copy of the same values, and a fresh call sees later updates.
func TestMeasurementIsZeroCopy(t *testing.T) {
	cm := sketch.NewCountMin(xrand.New(7), 64, 4)
	m, err := NewCountMinMeasurement(cm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cm.Update(42, 3)
	if sum(m.Measurements()) == 0 {
		t.Fatal("live updates are not visible through the measurement view")
	}
	cm.Update(7, 0.5) // a fraction widens the counters to float64
	y := m.Measurements()
	if !cm.Widened() || &y[0] != &cm.CounterData()[0] {
		t.Fatal("Measurements copied the widened counter array; it must alias the backing store")
	}
	cm.Update(42, 3)
	if sum(y) != cm.TotalMass()*4 {
		t.Fatal("live updates are not visible through the measurement view")
	}
}

// TestMeasurementMatchesSketchState is the linearity invariant behind the
// whole recovery API: the counters a sketch accumulates over a stream equal
// A·x computed by the adapter for the stream's frequency vector x, exactly.
func TestMeasurementMatchesSketchState(t *testing.T) {
	const n = 2048
	x := make([]float64, n)
	x[3] = 10
	x[700] = -4.5
	x[2047] = 2

	check := func(name string, mulVec func() ([]float64, []float64)) {
		y, state := mulVec()
		if len(y) != len(state) {
			t.Fatalf("%s: MulVec length %d, counter array length %d", name, len(y), len(state))
		}
		for i := range y {
			if math.Abs(y[i]-state[i]) > 1e-12 {
				t.Fatalf("%s: row %d: MulVec %v != counters %v", name, i, y[i], state[i])
			}
		}
	}

	check("countmin", func() ([]float64, []float64) {
		cm := sketch.NewCountMin(xrand.New(11), 128, 5)
		for j, v := range x {
			if v != 0 {
				cm.Update(uint64(j), v)
			}
		}
		m, err := NewCountMinMeasurement(cm, n)
		if err != nil {
			t.Fatal(err)
		}
		return m.MulVec(x), m.Measurements()
	})
	check("countsketch", func() ([]float64, []float64) {
		csk := sketch.NewCountSketch(xrand.New(11), 128, 5)
		for j, v := range x {
			if v != 0 {
				csk.Update(uint64(j), v)
			}
		}
		m, err := NewCountSketchMeasurement(csk, n)
		if err != nil {
			t.Fatal(err)
		}
		return m.MulVec(x), m.Measurements()
	})
}

// TestMeasurementTransposeAdjoint checks <Ax, y> == <x, A^T y> on fixed
// vectors, validating TMulVec against MulVec.
func TestMeasurementTransposeAdjoint(t *testing.T) {
	const n = 512
	cm := sketch.NewCountMin(xrand.New(3), 64, 4)
	m, err := NewCountMinMeasurement(cm, n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for j := range x {
		x[j] = float64((j*37)%11) - 5
	}
	rows, _ := m.Dims()
	y := make([]float64, rows)
	for i := range y {
		y[i] = float64((i*13)%7) - 3
	}
	lhs := dot(m.MulVec(x), y)
	rhs := dot(x, m.TMulVec(y))
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: <Ax,y>=%v, <x,A^T y>=%v", lhs, rhs)
	}
}

// TestMeasurementRecoversPlantedSupport runs a full cs recoverer over a
// tracker snapshot: ingest a k-sparse stream, recover it from the live
// counters through the adapter, and require the exact planted support.
func TestMeasurementRecoversPlantedSupport(t *testing.T) {
	const (
		n = 4096
		k = 8
	)
	tracker := sketch.NewHeavyHitterTracker(xrand.New(21), 2048, 5, 32)
	want := map[uint64]float64{5: 900, 77: 800, 1023: 700, 2048: 600, 3000: 500, 3500: 400, 4000: 300, 4095: 200}
	for item, count := range want {
		tracker.Update(item, count)
	}
	m, err := NewTrackerMeasurement(tracker, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []cs.Recoverer{cs.SketchDecode{}, cs.SMP{Iters: 20}, cs.IHT{Iters: 50}} {
		xhat, err := r.Recover(m, m.Measurements(), k)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		got := 0
		for j, v := range xhat {
			if v == 0 {
				continue
			}
			got++
			wantV, ok := want[uint64(j)]
			if !ok {
				t.Fatalf("%s: recovered spurious coordinate %d = %v", r.Name(), j, v)
			}
			if math.Abs(v-wantV) > 1e-9 {
				t.Fatalf("%s: coordinate %d = %v, want %v", r.Name(), j, v, wantV)
			}
		}
		if got != k {
			t.Fatalf("%s: recovered %d coordinates, want %d", r.Name(), got, k)
		}
	}
}

// TestMeasurementRejectsNonLinearSketches: conservative-update counters are
// not y = A·x, so the constructor must refuse them.
func TestMeasurementRejectsNonLinearSketches(t *testing.T) {
	cm := sketch.NewCountMin(xrand.New(1), 64, 4, sketch.WithConservativeUpdate())
	if _, err := NewCountMinMeasurement(cm, 100); err == nil {
		t.Fatal("expected conservative-update CountMin to be rejected")
	}
	if _, err := NewCountMinMeasurement(sketch.NewCountMin(xrand.New(1), 64, 4), 0); err == nil {
		t.Fatal("expected non-positive universe to be rejected")
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
