package sketch

import (
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/xrand"
)

// The tests in this file pin the read-side batch contract the way
// batch_test.go pins the write side: EstimateBatch is bit-identical to
// per-item Estimate for every family and every hash family, over both the
// sketch-owned and the caller-owned scratch paths, and the steady-state path
// does not allocate.

// queryKeys draws a key column that mixes keys the sketch has seen with
// fresh ones (collisions and empty buckets both exercised), spanning dense
// and full 64-bit ranges like randomColumns does.
func queryKeys(r *xrand.Rand, ingested []uint64, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch i % 3 {
		case 0:
			keys[i] = ingested[int(r.Uint64n(uint64(len(ingested))))]
		case 1:
			keys[i] = r.Uint64n(1 << 16)
		default:
			keys[i] = r.Uint64()
		}
	}
	return keys
}

// requireBatchMatchesScalar checks both entry points against the scalar
// estimator, bit for bit (NaN-safe via Float64bits).
func requireBatchMatchesScalar(t *testing.T, be BatchEstimator, keys []uint64) {
	t.Helper()
	dst := make([]float64, len(keys))
	at := 0
	for _, c := range chunks(len(keys)) {
		be.EstimateBatch(keys[at:at+c], dst[at:at+c])
		at += c
	}
	for i, key := range keys {
		if want := be.Estimate(key); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("EstimateBatch[%d] (key %d): got %v, scalar %v", i, key, dst[i], want)
		}
	}
	var sc EstimateScratch
	with := make([]float64, len(keys))
	at = 0
	for _, c := range chunks(len(keys)) {
		be.EstimateBatchWith(keys[at:at+c], with[at:at+c], &sc)
		at += c
	}
	for i := range keys {
		if math.Float64bits(with[i]) != math.Float64bits(dst[i]) {
			t.Fatalf("EstimateBatchWith[%d]: got %v, EstimateBatch %v", i, with[i], dst[i])
		}
	}
}

// TestCountMinEstimateBatchMatchesScalar: per hash family, random dims,
// batch == scalar bit for bit on a mixed seen/unseen key column.
func TestCountMinEstimateBatchMatchesScalar(t *testing.T) {
	families := []hashing.Family{hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation}
	r := xrand.New(31)
	for _, f := range families {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				width := 1 + int(r.Uint64n(300))
				depth := 1 + int(r.Uint64n(6))
				cm := NewCountMin(xrand.New(r.Uint64()), width, depth, WithCountMinHashFamily(f))
				items, deltas := randomColumns(r, 1000)
				cm.UpdateBatch(items, deltas)
				requireBatchMatchesScalar(t, cm, queryKeys(r, items, 500))
			}
		})
	}
}

// TestCountMinEstimateBatchOddCounters: the batched minimum and the scalar
// `<` fold agree bit for bit on counters where a minimum instruction and the
// fold part ways: NaN, signed zeros, infinities.
func TestCountMinEstimateBatchOddCounters(t *testing.T) {
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 5e-324}
	r := xrand.New(35)
	for _, depth := range []int{1, 2, 4, 5} {
		cm := NewCountMin(xrand.New(r.Uint64()), 8, depth) // narrow: every mix of odd values gets queried
		cm.widen()                                         // odd values need float64 counters
		for trial := 0; trial < 50; trial++ {
			for i := range cm.counts {
				cm.counts[i] = odd[r.Uint64n(uint64(len(odd)))]
			}
			requireBatchMatchesScalar(t, cm, queryKeys(r, []uint64{7}, 700))
		}
	}
}

// TestEstimateBatchWhereHashRangeExceedsWidth pins the one configuration in
// which the row-set kernel still divides: multiply-shift rounds its range up to a power
// of two, so at any other width the batch kernels' buckets must be reduced
// modulo the width exactly as the scalar bucket() does. Width 128 rides along
// as the neighbouring case where the range is the width and nothing divides.
func TestEstimateBatchWhereHashRangeExceedsWidth(t *testing.T) {
	r := xrand.New(34)
	for _, width := range []int{3, 100, 128, 1000} {
		cm := NewCountMin(xrand.New(r.Uint64()), width, 4, WithCountMinHashFamily(hashing.FamilyMultiplyShift))
		cs := NewCountSketch(xrand.New(r.Uint64()), width, 5, WithCountSketchHashFamily(hashing.FamilyMultiplyShift))
		if exceeds := cm.hashes[0].Range() > uint64(width); exceeds != (width != 128) {
			t.Fatalf("width %d: multiply-shift range is %d, the test's premise is broken", width, cm.hashes[0].Range())
		}
		items, deltas := randomColumns(r, 2000)
		cm.UpdateBatch(items, deltas)
		cs.UpdateBatch(items, deltas)
		keys := queryKeys(r, items, 700)
		requireBatchMatchesScalar(t, cm, keys)
		requireBatchMatchesScalar(t, cs, keys)
	}
}

// TestCountSketchEstimateBatchMatchesScalar covers the signed median path,
// including even depths (median averages the two middle row values).
func TestCountSketchEstimateBatchMatchesScalar(t *testing.T) {
	families := []hashing.Family{hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation}
	r := xrand.New(32)
	for _, f := range families {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				width := 1 + int(r.Uint64n(300))
				depth := 1 + int(r.Uint64n(6))
				cs := NewCountSketch(xrand.New(r.Uint64()), width, depth, WithCountSketchHashFamily(f))
				items, deltas := randomColumns(r, 1000)
				cs.UpdateBatch(items, deltas)
				requireBatchMatchesScalar(t, cs, queryKeys(r, items, 500))
			}
		})
	}
}

// TestDyadicEstimateBatchMatchesScalar: the hierarchy reads its level-0
// Count-Min either way.
func TestDyadicEstimateBatchMatchesScalar(t *testing.T) {
	r := xrand.New(33)
	d := NewDyadic(xrand.New(9), 16, 128, 3)
	items := make([]uint64, 1000)
	deltas := make([]float64, 1000)
	for i := range items {
		items[i] = r.Uint64n(1 << 16)
		deltas[i] = float64(r.Uint64n(100)) / 3
	}
	d.UpdateBatch(items, deltas)
	requireBatchMatchesScalar(t, d, queryKeys(r, items, 500))
}

// TestTrackerEstimateBatchMatchesScalar: the tracker answers from its
// backing Count-Min either way.
func TestTrackerEstimateBatchMatchesScalar(t *testing.T) {
	r := xrand.New(34)
	tr := NewHeavyHitterTracker(xrand.New(10), 256, 4, 16)
	items, deltas := randomColumns(r, 1000)
	for i := range deltas {
		deltas[i] = math.Abs(deltas[i])
	}
	tr.UpdateBatch(items, deltas)
	requireBatchMatchesScalar(t, tr, queryKeys(r, items, 500))
}

// TestEstimateBatchLengthMismatchPanics pins the contract violation to a
// panic for every batched family, mirroring the UpdateBatch contract.
func TestEstimateBatchLengthMismatchPanics(t *testing.T) {
	r := xrand.New(35)
	cases := map[string]func(){
		"countmin":    func() { NewCountMin(r, 8, 2).EstimateBatch(make([]uint64, 3), make([]float64, 2)) },
		"countsketch": func() { NewCountSketch(r, 8, 2).EstimateBatch(make([]uint64, 3), make([]float64, 2)) },
		"dyadic":      func() { NewDyadic(r, 4, 8, 2).EstimateBatch(make([]uint64, 3), make([]float64, 2)) },
		"tracker":     func() { NewHeavyHitterTracker(r, 8, 2, 4).EstimateBatch(make([]uint64, 3), make([]float64, 2)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestEstimateBatchZeroAlloc asserts the steady-state allocation contract of
// both scratch modes directly (the EstimateBatch benchmarks report it; this
// fails the build if it regresses).
func TestEstimateBatchZeroAlloc(t *testing.T) {
	items, deltas := benchColumns(2048)
	dst := make([]float64, len(items))
	cm := NewCountMin(xrand.New(1), 1024, 4)
	cs := NewCountSketch(xrand.New(1), 1024, 4)
	tracker := NewHeavyHitterTracker(xrand.New(1), 1024, 4, 64)
	cm.UpdateBatch(items, deltas)
	cs.UpdateBatch(items, deltas)
	tracker.UpdateBatch(items, deltas)
	var sc EstimateScratch
	cm.EstimateBatch(items, dst)
	cs.EstimateBatch(items, dst)
	cm.EstimateBatchWith(items, dst, &sc)
	cs.EstimateBatchWith(items, dst, &sc)
	tracker.EstimateBatchWith(items, dst, &sc)
	for name, fn := range map[string]func(){
		"countmin":         func() { cm.EstimateBatch(items, dst) },
		"countsketch":      func() { cs.EstimateBatch(items, dst) },
		"countmin-with":    func() { cm.EstimateBatchWith(items, dst, &sc) },
		"countsketch-with": func() { cs.EstimateBatchWith(items, dst, &sc) },
		// The daemon's read kernel: every served point query lands here.
		"tracker-with": func() { tracker.EstimateBatchWith(items, dst, &sc) },
	} {
		if avg := testing.AllocsPerRun(20, fn); avg != 0 {
			t.Errorf("%s: EstimateBatch allocates %v objects steady-state, want 0", name, avg)
		}
	}
}

func benchmarkSketchEstimateBatch(b *testing.B, estimate func(keys []uint64, dst []float64)) {
	const batchLen = 4096
	keys, _ := benchColumns(batchLen)
	dst := make([]float64, batchLen)
	estimate(keys, dst) // warm the scratch so steady state is measured
	b.SetBytes(batchLen * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimate(keys, dst)
	}
}

func BenchmarkCountMinEstimateBatch(b *testing.B) {
	for _, f := range []hashing.Family{hashing.FamilyMultiplyShift, hashing.FamilyPoly2, hashing.FamilyTabulation} {
		b.Run(f.String(), func(b *testing.B) {
			cm := NewCountMin(xrand.New(1), 4096, 4, WithCountMinHashFamily(f))
			items, deltas := benchColumns(4096)
			cm.UpdateBatch(items, deltas)
			benchmarkSketchEstimateBatch(b, cm.EstimateBatch)
		})
	}
}

func BenchmarkCountMinEstimateScalar(b *testing.B) {
	for _, f := range []hashing.Family{hashing.FamilyMultiplyShift, hashing.FamilyPoly2, hashing.FamilyTabulation} {
		b.Run(f.String(), func(b *testing.B) {
			cm := NewCountMin(xrand.New(1), 4096, 4, WithCountMinHashFamily(f))
			items, deltas := benchColumns(4096)
			cm.UpdateBatch(items, deltas)
			benchmarkSketchEstimateBatch(b, func(keys []uint64, dst []float64) {
				for i, key := range keys {
					dst[i] = cm.Estimate(key)
				}
			})
		})
	}
}

func BenchmarkCountSketchEstimateBatch(b *testing.B) {
	cs := NewCountSketch(xrand.New(1), 4096, 4)
	items, deltas := benchColumns(4096)
	cs.UpdateBatch(items, deltas)
	benchmarkSketchEstimateBatch(b, cs.EstimateBatch)
}

// BenchmarkTrackerEstimateBatch is the daemon's read kernel in isolation: a
// warmed EstimateScratch answers a 4096-key column through the batched
// kernels with zero heap allocations per call.
func BenchmarkTrackerEstimateBatch(b *testing.B) {
	tracker := NewHeavyHitterTracker(xrand.New(2), 4096, 4, 64)
	items, deltas := benchColumns(1 << 16)
	tracker.UpdateBatch(items, deltas)
	var sc EstimateScratch
	benchmarkSketchEstimateBatch(b, func(keys []uint64, dst []float64) {
		tracker.EstimateBatchWith(keys, dst, &sc)
	})
}

func BenchmarkCountSketchEstimateScalar(b *testing.B) {
	cs := NewCountSketch(xrand.New(1), 4096, 4)
	items, deltas := benchColumns(4096)
	cs.UpdateBatch(items, deltas)
	benchmarkSketchEstimateBatch(b, func(keys []uint64, dst []float64) {
		for i, key := range keys {
			dst[i] = cs.Estimate(key)
		}
	})
}
