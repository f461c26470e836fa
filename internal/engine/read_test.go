package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// The tests in this file pin the epoch-pinned read cache: a read at
// generation g sees exactly the first g dispatched batches (coherence under
// racing ingest, run under -race), quiescent reads share one epoch without
// barriers, and EstimateBatch answers match the epoch's snapshot bit for bit.

// readTestBatches builds n deterministic batches of size batchSize each.
func readTestBatches(seed uint64, n, batchSize int) (items [][]uint64, deltas [][]float64) {
	r := xrand.New(seed)
	items = make([][]uint64, n)
	deltas = make([][]float64, n)
	for b := range items {
		items[b] = make([]uint64, batchSize)
		deltas[b] = make([]float64, batchSize)
		for i := range items[b] {
			items[b][i] = r.Uint64n(1 << 12)
			deltas[b][i] = float64(r.Uint64n(8) + 1)
		}
	}
	return items, deltas
}

// referenceAt replays the first gen batches single-threaded.
func referenceAt(proto *sketch.CountMin, items [][]uint64, deltas [][]float64, gen uint64) *sketch.CountMin {
	ref := proto.Clone()
	for b := uint64(0); b < gen; b++ {
		ref.UpdateBatch(items[b], deltas[b])
	}
	return ref
}

// TestReadSnapshotCoherenceUnderRacingIngest runs readers against a producer
// mid-stream in both sharding modes: every read's (snapshot, gen) pair must
// satisfy snapshot == single-threaded replay of the first gen batches,
// counter for counter, bit for bit.
func TestReadSnapshotCoherenceUnderRacingIngest(t *testing.T) {
	for _, mode := range []struct {
		name      string
		partition bool
	}{{"replica", false}, {"partition", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			const (
				batchSize = 64
				nBatches  = 150
				readers   = 4
			)
			proto := sketch.NewCountMin(xrand.New(61), 256, 4)
			eng := NewCountMin(Config{Workers: 3, BatchSize: batchSize, Partition: mode.partition}, proto)
			items, deltas := readTestBatches(62, nBatches, batchSize)

			var done atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					checked := 0
					for !done.Load() || checked == 0 {
						snap, gen, err := eng.ReadSnapshot()
						if err != nil {
							t.Errorf("ReadSnapshot: %v", err)
							return
						}
						if gen > nBatches {
							t.Errorf("gen %d beyond the %d dispatched batches", gen, nBatches)
							return
						}
						ref := referenceAt(proto, items, deltas, gen)
						want, got := ref.CounterData(), snap.CounterData()
						for i := range want {
							if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
								t.Errorf("gen %d: counter %d: got %v, reference %v", gen, i, got[i], want[i])
								return
							}
						}
						if ref.TotalMass() != snap.TotalMass() {
							t.Errorf("gen %d: total mass: got %v, reference %v", gen, snap.TotalMass(), ref.TotalMass())
							return
						}
						checked++
					}
				}()
			}

			p := eng.Producer()
			for b := range items {
				// Each UpdateColumns call fills the handle's buffer exactly, so
				// dispatch b+1 carries precisely batches[0..b] — generation g
				// means "the first g batches" by construction.
				p.UpdateColumns(items[b], deltas[b])
			}
			p.Close()
			done.Store(true)
			wg.Wait()

			// After the producer closed, a fresh read must see everything.
			snap, gen, err := eng.ReadSnapshot()
			if err != nil {
				t.Fatalf("final ReadSnapshot: %v", err)
			}
			if gen != nBatches {
				t.Fatalf("final gen %d, want %d", gen, nBatches)
			}
			ref := referenceAt(proto, items, deltas, nBatches)
			if ref.TotalMass() != snap.TotalMass() {
				t.Fatalf("final mass %v, want %v", snap.TotalMass(), ref.TotalMass())
			}
			if _, err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, _, err := eng.ReadSnapshot(); err != ErrClosed {
				t.Fatalf("ReadSnapshot after Close: err %v, want ErrClosed", err)
			}
		})
	}
}

// TestReadSnapshotPinsEpoch: quiescent reads share one snapshot (same
// pointer, no extra misses); a write invalidates exactly once.
func TestReadSnapshotPinsEpoch(t *testing.T) {
	eng := NewCountMin(Config{Workers: 2, BatchSize: 4}, sketch.NewCountMin(xrand.New(63), 128, 3))
	defer eng.Close()

	eng.UpdateColumns([]uint64{1, 2, 3, 4}, []float64{1, 1, 1, 1})
	eng.Flush()

	s1, g1, err := eng.ReadSnapshot()
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	s2, g2, err := eng.ReadSnapshot()
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if s1 != s2 || g1 != g2 {
		t.Fatalf("quiescent reads got distinct epochs: %p gen %d vs %p gen %d", s1, g1, s2, g2)
	}
	if hits, misses := eng.EpochHits(), eng.EpochMisses(); hits != 1 || misses != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", hits, misses)
	}

	eng.UpdateColumns([]uint64{5, 6, 7, 8}, []float64{1, 1, 1, 1})
	eng.Flush()
	s3, g3, err := eng.ReadSnapshot()
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if s3 == s1 || g3 <= g1 {
		t.Fatalf("write did not invalidate the epoch: %p gen %d after %p gen %d", s3, g3, s1, g1)
	}
	if misses := eng.EpochMisses(); misses != 2 {
		t.Fatalf("misses %d after one invalidation, want 2", misses)
	}
}

// TestEngineEstimateBatchMatchesEpoch: the pooled-scratch batch path answers
// exactly what the pinned snapshot answers, for concurrent readers, and a
// dispatch invalidates the epoch.
func TestEngineEstimateBatchMatchesEpoch(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(65), 256, 4)
	eng := NewCountMin(Config{Workers: 2, BatchSize: 64}, proto)
	defer eng.Close()

	r := xrand.New(66)
	items := make([]uint64, 640)
	deltas := make([]float64, 640)
	for i := range items {
		items[i] = r.Uint64n(1 << 10)
		deltas[i] = float64(r.Uint64n(10))
	}
	eng.UpdateColumns(items, deltas)
	eng.Flush()

	snap, gen, err := eng.ReadSnapshot()
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]uint64, 200)
			dst := make([]float64, len(keys))
			kr := xrand.New(uint64(100 + w))
			for round := 0; round < 20; round++ {
				for i := range keys {
					keys[i] = kr.Uint64n(1 << 11)
				}
				g, err := eng.EstimateBatch(keys, dst)
				if err != nil {
					t.Errorf("EstimateBatch: %v", err)
					return
				}
				if g != gen {
					t.Errorf("EstimateBatch gen %d, want %d (no writes in flight)", g, gen)
					return
				}
				for i, key := range keys {
					if want := snap.Estimate(key); math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Errorf("key %d: got %v, epoch snapshot %v", key, dst[i], want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// A dispatch must invalidate the pinned epoch.
	eng.Update(7, 3)
	eng.Flush()
	dst := make([]float64, 1)
	g, err := eng.EstimateBatch([]uint64{7}, dst)
	if err != nil {
		t.Fatalf("EstimateBatch after dispatch: %v", err)
	}
	if g != gen+1 {
		t.Fatalf("gen after dispatch: %d, want %d", g, gen+1)
	}
	want := snap.Estimate(7) + 3
	if dst[0] != want {
		t.Fatalf("estimate after dispatch: %v, want %v", dst[0], want)
	}
}

// TestEngineEstimateBatchLengthMismatchPanics mirrors the sketch contract.
func TestEngineEstimateBatchLengthMismatchPanics(t *testing.T) {
	eng := NewCountMin(Config{Workers: 1}, sketch.NewCountMin(xrand.New(67), 64, 2))
	defer eng.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	eng.EstimateBatch(make([]uint64, 3), make([]float64, 2))
}
