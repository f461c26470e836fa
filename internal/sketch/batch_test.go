package sketch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/hashing"
	"repro/internal/xrand"
)

// The tests in this file pin down the two contracts of the batch-first
// refactor: UpdateBatch is bit-identical to the per-item path for every
// family, and the flat counter layout marshals byte-identically to the
// pre-refactor row-slice layout (golden fixtures generated by the old code).

// randomColumns draws a random key/delta workload: keys span dense and full
// 64-bit ranges, deltas are signed and fractional.
func randomColumns(r *xrand.Rand, n int) ([]uint64, []float64) {
	items := make([]uint64, n)
	deltas := make([]float64, n)
	for i := range items {
		if i%3 == 0 {
			items[i] = r.Uint64()
		} else {
			items[i] = r.Uint64n(1 << 16)
		}
		deltas[i] = float64(r.Uint64n(1000))/7 - 50
	}
	return items, deltas
}

// chunks splits n into uneven batch sizes (including len-1 batches) so the
// property covers both the wrapper and the bulk path.
func chunks(n int) []int {
	sizes := []int{1, 7, 64, 3, 1, 256, 37}
	var out []int
	for n > 0 {
		c := sizes[len(out)%len(sizes)]
		if c > n {
			c = n
		}
		out = append(out, c)
		n -= c
	}
	return out
}

// TestCountMinBatchMatchesScalar: per-family, random dims, batch == scalar
// bit for bit (counters, total mass, estimates).
func TestCountMinBatchMatchesScalar(t *testing.T) {
	families := []hashing.Family{hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation}
	r := xrand.New(5)
	for _, f := range families {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				width := 1 + int(r.Uint64n(300))
				depth := 1 + int(r.Uint64n(6))
				seedR := xrand.New(r.Uint64())
				scalar := NewCountMin(seedR, width, depth, WithCountMinHashFamily(f))
				batch := scalar.Clone()
				items, deltas := randomColumns(r, 1000)
				for i := range items {
					scalar.Update(items[i], deltas[i])
				}
				at := 0
				for _, c := range chunks(len(items)) {
					batch.UpdateBatch(items[at:at+c], deltas[at:at+c])
					at += c
				}
				if scalar.TotalMass() != batch.TotalMass() {
					t.Fatalf("total mass: scalar %v, batch %v", scalar.TotalMass(), batch.TotalMass())
				}
				requireEqualCounters(t, scalar.CounterData(), batch.CounterData())
			}
		})
	}
}

// TestCountMinConservativeBatchMatchesScalar covers the non-linear
// conservative-update path, which degenerates to per-item but must still
// agree exactly.
func TestCountMinConservativeBatchMatchesScalar(t *testing.T) {
	r := xrand.New(6)
	scalar := NewCountMin(xrand.New(77), 128, 4, WithConservativeUpdate())
	batch := NewCountMin(xrand.New(77), 128, 4, WithConservativeUpdate())
	items := make([]uint64, 800)
	deltas := make([]float64, 800)
	for i := range items {
		items[i] = r.Uint64n(1 << 10)
		deltas[i] = float64(r.Uint64n(5))
	}
	for i := range items {
		scalar.Update(items[i], deltas[i])
	}
	at := 0
	for _, c := range chunks(len(items)) {
		batch.UpdateBatch(items[at:at+c], deltas[at:at+c])
		at += c
	}
	requireEqualCounters(t, scalar.CounterData(), batch.CounterData())
}

// TestCountSketchBatchMatchesScalar: signed kernels included.
func TestCountSketchBatchMatchesScalar(t *testing.T) {
	families := []hashing.Family{hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation}
	r := xrand.New(7)
	for _, f := range families {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				width := 1 + int(r.Uint64n(300))
				depth := 1 + int(r.Uint64n(6))
				seedR := xrand.New(r.Uint64())
				scalar := NewCountSketch(seedR, width, depth, WithCountSketchHashFamily(f))
				batch := scalar.Clone()
				items, deltas := randomColumns(r, 1000)
				for i := range items {
					scalar.Update(items[i], deltas[i])
				}
				at := 0
				for _, c := range chunks(len(items)) {
					batch.UpdateBatch(items[at:at+c], deltas[at:at+c])
					at += c
				}
				requireEqualCounters(t, scalar.CounterData(), batch.CounterData())
			}
		})
	}
}

// TestBloomAddBatchMatchesScalar: identical bit arrays and counts.
func TestBloomAddBatchMatchesScalar(t *testing.T) {
	r := xrand.New(8)
	scalar := NewBloomFilter(xrand.New(3), 4099, 4)
	batch := NewBloomFilter(xrand.New(3), 4099, 4)
	items, _ := randomColumns(r, 700)
	for _, it := range items {
		scalar.Add(it)
	}
	at := 0
	for _, c := range chunks(len(items)) {
		batch.AddBatch(items[at : at+c])
		at += c
	}
	if scalar.Count() != batch.Count() {
		t.Fatalf("count: scalar %d, batch %d", scalar.Count(), batch.Count())
	}
	a, _ := scalar.MarshalBinary()
	b, _ := batch.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("bloom bit arrays differ between scalar and batch ingestion")
	}
}

// TestIBLTBatchMatchesScalar: identical cells, and both decode to the same
// key set.
func TestIBLTBatchMatchesScalar(t *testing.T) {
	r := xrand.New(9)
	scalar := NewIBLT(xrand.New(4), 256, 3)
	batch := NewIBLT(xrand.New(4), 256, 3)
	keys := make([]uint64, 300)
	deltas := make([]int64, 300)
	for i := range keys {
		keys[i] = r.Uint64n(1 << 40)
		deltas[i] = int64(r.Uint64n(7)) - 3 // includes zeros and deletions
	}
	for i := range keys {
		scalar.Update(keys[i], deltas[i])
	}
	at := 0
	for _, c := range chunks(len(keys)) {
		batch.UpdateBatch(keys[at:at+c], deltas[at:at+c])
		at += c
	}
	a, _ := scalar.MarshalBinary()
	b, _ := batch.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("IBLT cells differ between scalar and batch ingestion")
	}
}

// TestDyadicBatchMatchesScalar: every level's counters identical, and the
// derived answers (range sums, quantiles) too.
func TestDyadicBatchMatchesScalar(t *testing.T) {
	r := xrand.New(10)
	scalar := NewDyadic(xrand.New(5), 14, 97, 3)
	batch := NewDyadic(xrand.New(5), 14, 97, 3)
	items := make([]uint64, 900)
	deltas := make([]float64, 900)
	for i := range items {
		items[i] = r.Uint64n(1 << 14)
		deltas[i] = float64(r.Uint64n(9)) / 3
	}
	for i := range items {
		scalar.Update(items[i], deltas[i])
	}
	at := 0
	for _, c := range chunks(len(items)) {
		batch.UpdateBatch(items[at:at+c], deltas[at:at+c])
		at += c
	}
	a, _ := scalar.MarshalBinary()
	b, _ := batch.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("dyadic levels differ between scalar and batch ingestion")
	}
	if s, q := scalar.RangeSum(100, 9000), batch.RangeSum(100, 9000); s != q {
		t.Fatalf("RangeSum: scalar %v, batch %v", s, q)
	}
}

// TestTrackerBatchMatchesScalar: the tracker's batch path is defined as the
// in-order per-item path; candidate sets and counters must agree exactly.
func TestTrackerBatchMatchesScalar(t *testing.T) {
	r := xrand.New(11)
	scalar := NewHeavyHitterTracker(xrand.New(6), 128, 3, 10)
	batch := NewHeavyHitterTracker(xrand.New(6), 128, 3, 10)
	items := make([]uint64, 1200)
	deltas := make([]float64, 1200)
	for i := range items {
		items[i] = r.Uint64n(200)
		deltas[i] = 1 + float64(r.Uint64n(3))
	}
	for i := range items {
		scalar.Update(items[i], deltas[i])
	}
	at := 0
	for _, c := range chunks(len(items)) {
		batch.UpdateBatch(items[at:at+c], deltas[at:at+c])
		at += c
	}
	a, _ := scalar.MarshalBinary()
	b, _ := batch.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("tracker state differs between scalar and batch ingestion")
	}
}

// TestIBLTConcurrentGets: Get is a read and must not touch the table's
// shared write scratch — concurrent point queries on a quiescent table are
// safe (this test is meaningful under -race).
func TestIBLTConcurrentGets(t *testing.T) {
	ib := NewIBLT(xrand.New(21), 128, 3)
	for k := uint64(0); k < 30; k++ {
		ib.Update(k, int64(k+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(0); k < 60; k++ {
				if cnt, ok := ib.Get(k); ok && k < 30 && cnt != 0 && cnt != int64(k+1) {
					t.Errorf("Get(%d) = %d, want %d or inconclusive", k, cnt, k+1)
				}
			}
		}()
	}
	wg.Wait()
}

func requireEqualCounters(t *testing.T, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("counter lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("counter %d differs: scalar %v, batch %v", i, a[i], b[i])
		}
	}
}

// Golden fixtures -----------------------------------------------------------

// TestGoldenEncodingFixtures rebuilds every sketch family with the fixed
// recipe below and requires MarshalBinary to reproduce, byte for byte, the
// fixtures under testdata/ — which were generated by the pre-refactor
// [][]float64 implementation. This proves the flat-layout refactor changed
// neither the wire format nor a single counter bit: snapshots taken before
// and after the refactor for the same seed and stream are identical.
func TestGoldenEncodingFixtures(t *testing.T) {
	r := xrand.New(7)
	sr := xrand.New(99)
	items := make([]uint64, 500)
	deltas := make([]float64, 500)
	for i := range items {
		items[i] = sr.Uint64n(1 << 30)
		deltas[i] = float64(sr.Uint64n(9)) - 3.5
	}

	// NOTE: construction order matters — each sketch draws its seed from the
	// shared r, exactly as the fixture generator did.
	cm := NewCountMin(r, 37, 4)
	cm.UpdateBatch(items, deltas)

	cs := NewCountSketch(r, 41, 5)
	cs.UpdateBatch(items, deltas)

	bf := NewBloomFilter(r, 997, 3)
	bf.AddBatch(items)

	ib := NewIBLT(r, 64, 3)
	ibDeltas := make([]int64, 40)
	for i := range ibDeltas {
		ibDeltas[i] = int64(i%5) - 2
	}
	ib.UpdateBatch(items[:40], ibDeltas)

	tr := NewHeavyHitterTracker(r, 53, 3, 8)
	trItems := make([]uint64, len(items))
	trDeltas := make([]float64, len(deltas))
	for i := range items {
		trItems[i] = items[i] % 64
		trDeltas[i] = deltas[i] + 4
	}
	tr.UpdateBatch(trItems, trDeltas)

	dy := NewDyadic(r, 12, 29, 3)
	dyItems := make([]uint64, len(items))
	for i := range items {
		dyItems[i] = items[i] % (1 << 12)
	}
	dy.UpdateBatch(dyItems, deltas)

	cases := []struct {
		file string
		s    interface{ MarshalBinary() ([]byte, error) }
	}{
		{"countmin.golden", cm},
		{"countsketch.golden", cs},
		{"bloom.golden", bf},
		{"iblt.golden", ib},
		{"tracker.golden", tr},
		{"dyadic.golden", dy},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		got, err := tc.s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.file, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: flat-layout encoding differs from the pre-refactor bytes (%d vs %d bytes)", tc.file, len(got), len(want))
		}
	}
}

// Benchmarks ----------------------------------------------------------------

// benchColumns builds a deterministic Zipf-free workload: enough keys to
// dwarf the scratch warm-up, batched at the engine's default size.
func benchColumns(n int) ([]uint64, []float64) {
	r := xrand.New(1)
	items := make([]uint64, n)
	deltas := make([]float64, n)
	for i := range items {
		items[i] = r.Uint64n(1 << 20)
		deltas[i] = 1
	}
	return items, deltas
}

func benchmarkSketchBatch(b *testing.B, update func(items []uint64, deltas []float64)) {
	const batchLen = 4096
	items, deltas := benchColumns(batchLen)
	update(items, deltas) // warm the scratch so steady state is measured
	b.SetBytes(batchLen * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update(items, deltas)
	}
}

func BenchmarkCountMinUpdateBatch(b *testing.B) {
	for _, f := range []hashing.Family{hashing.FamilyMultiplyShift, hashing.FamilyPoly2, hashing.FamilyTabulation} {
		b.Run(f.String(), func(b *testing.B) {
			cm := NewCountMin(xrand.New(1), 4096, 4, WithCountMinHashFamily(f))
			benchmarkSketchBatch(b, cm.UpdateBatch)
		})
	}
}

func BenchmarkCountMinUpdateScalar(b *testing.B) {
	for _, f := range []hashing.Family{hashing.FamilyMultiplyShift, hashing.FamilyPoly2, hashing.FamilyTabulation} {
		b.Run(f.String(), func(b *testing.B) {
			cm := NewCountMin(xrand.New(1), 4096, 4, WithCountMinHashFamily(f))
			benchmarkSketchBatch(b, func(items []uint64, deltas []float64) {
				for i := range items {
					cm.Update(items[i], deltas[i])
				}
			})
		})
	}
}

func BenchmarkCountSketchUpdateBatch(b *testing.B) {
	cs := NewCountSketch(xrand.New(1), 4096, 4)
	benchmarkSketchBatch(b, cs.UpdateBatch)
}

func BenchmarkCountSketchUpdateScalar(b *testing.B) {
	cs := NewCountSketch(xrand.New(1), 4096, 4)
	benchmarkSketchBatch(b, func(items []uint64, deltas []float64) {
		for i := range items {
			cs.Update(items[i], deltas[i])
		}
	})
}

func BenchmarkBloomAddBatch(b *testing.B) {
	bf := NewBloomFilter(xrand.New(1), 1<<20, 4)
	benchmarkSketchBatch(b, func(items []uint64, _ []float64) {
		bf.AddBatch(items)
	})
}

func BenchmarkDyadicUpdateBatch(b *testing.B) {
	dy := NewDyadic(xrand.New(1), 20, 1024, 3)
	benchmarkSketchBatch(b, dy.UpdateBatch)
}

// BenchmarkTrackerZipfBatch measures the heavy-hitter tracker as the daemon
// drives it: Zipf(1.1) keys over 2^20 into width x 4 counters, k=64,
// 4096-update frames cycling through a 2^20-update stream (so the counters
// are really walked and the candidate floor is really contested), at both
// widths the repository benchmark runs.
func BenchmarkTrackerZipfBatch(b *testing.B) {
	const frame, streamLen = 4096, 1 << 20
	z := xrand.NewZipf(xrand.New(1), 1<<20, 1.1)
	items := make([]uint64, streamLen)
	deltas := make([]float64, streamLen)
	for i := range items {
		items[i] = uint64(z.Next()) * 0x9e3779b97f4a7c15 // heavy keys are not the small ids
		deltas[i] = 1
	}
	for _, width := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			tr := NewHeavyHitterTracker(xrand.New(1), width, 4, 64)
			tr.UpdateBatch(items, deltas) // fill the store so steady state is measured
			b.SetBytes(frame * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i * frame % streamLen
				tr.UpdateBatch(items[at:at+frame], deltas[at:at+frame])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/update")
		})
	}
}

func BenchmarkIBLTUpdateBatch(b *testing.B) {
	ib := NewIBLT(xrand.New(1), 1<<16, 3)
	const batchLen = 4096
	keys, _ := benchColumns(batchLen)
	deltas := make([]int64, batchLen)
	for i := range deltas {
		deltas[i] = 1
	}
	ib.UpdateBatch(keys, deltas)
	b.SetBytes(batchLen * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ib.UpdateBatch(keys, deltas)
	}
}

// TestUpdateBatchLengthMismatchPanics pins the contract violation to a panic
// rather than silent truncation, for every batched family.
func TestUpdateBatchLengthMismatchPanics(t *testing.T) {
	r := xrand.New(12)
	cases := map[string]func(){
		"countmin":    func() { NewCountMin(r, 8, 2).UpdateBatch(make([]uint64, 3), make([]float64, 2)) },
		"countsketch": func() { NewCountSketch(r, 8, 2).UpdateBatch(make([]uint64, 3), make([]float64, 2)) },
		"iblt":        func() { NewIBLT(r, 8, 2).UpdateBatch(make([]uint64, 3), make([]int64, 2)) },
		"dyadic":      func() { NewDyadic(r, 4, 8, 2).UpdateBatch(make([]uint64, 3), make([]float64, 2)) },
		"tracker":     func() { NewHeavyHitterTracker(r, 8, 2, 4).UpdateBatch(make([]uint64, 3), make([]float64, 2)) },
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

// TestUpdateBatchZeroAlloc asserts the steady-state allocation contract
// directly (the benchmarks report it; this fails the build if it regresses).
func TestUpdateBatchZeroAlloc(t *testing.T) {
	items, deltas := benchColumns(2048)
	cm := NewCountMin(xrand.New(1), 1024, 4)
	cs := NewCountSketch(xrand.New(1), 1024, 4)
	// The tracker is measured in the state the daemon keeps it in: candidate
	// store full and, on uniform keys into a narrow sketch, still turning over
	// (estimates climb with the stream, so newcomers keep beating the floor).
	tr := NewHeavyHitterTracker(xrand.New(1), 1024, 4, 8)
	cm.UpdateBatch(items, deltas)
	cs.UpdateBatch(items, deltas)
	tr.UpdateBatch(items, deltas)
	held := tr.candidateItems()
	for name, fn := range map[string]func(){
		"countmin":    func() { cm.UpdateBatch(items, deltas) },
		"countsketch": func() { cs.UpdateBatch(items, deltas) },
		"tracker":     func() { tr.UpdateBatch(items, deltas) },
	} {
		if avg := testing.AllocsPerRun(20, fn); avg != 0 {
			t.Errorf("%s: UpdateBatch allocates %v objects steady-state, want 0", name, avg)
		}
	}
	if len(held) != tr.K() {
		t.Fatalf("tracker store held %d of %d candidates before the measured runs, want it full", len(held), tr.K())
	}
	still := make(map[uint64]bool)
	for _, item := range tr.candidateItems() {
		still[item] = true
	}
	evicted := 0
	for _, item := range held {
		if !still[item] {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no candidate was evicted during the measured runs: the zero-alloc claim did not cover evictions")
	}
}
