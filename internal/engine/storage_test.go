package engine

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// TestPinnedCutWhileReplicaWidens reads a pinned cut from several goroutines
// while the producer that fed it keeps ingesting, a fractional delta widening
// the replica it lands in: widening touches only the replica's own arrays, so
// the cut keeps its int32 counters and its bytes, and every read of it gives
// the same estimates (CI runs this under -race).
func TestPinnedCutWhileReplicaWidens(t *testing.T) {
	proto := sketch.NewHeavyHitterTracker(xrand.New(5), 256, 4, 8)
	eng := NewTracker(Config{Workers: 2, BatchSize: 64}, proto)
	r := xrand.New(6)
	column := func(n int) ([]uint64, []float64) {
		items, deltas := make([]uint64, n), make([]float64, n)
		for i := range items {
			items[i], deltas[i] = r.Uint64n(1000), float64(1+r.Uint64n(4))
		}
		return items, deltas
	}
	eng.UpdateColumns(column(4096))
	eng.Flush()
	cut, _, err := eng.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if cut.Widened() || eng.WidenedReplicas() != 0 {
		t.Fatal("an integer stream widened the counters")
	}
	want, _ := cut.MarshalBinary()
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	wantEst := make([]float64, len(keys))
	cut.EstimateBatch(keys, wantEst)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc sketch.EstimateScratch
			dst := make([]float64, len(keys))
			for {
				select {
				case <-stop:
					return
				default:
				}
				cut.EstimateBatchWith(keys, dst, &sc)
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(wantEst[i]) {
						t.Errorf("key %d read %v from the pinned cut, want %v", keys[i], dst[i], wantEst[i])
						return
					}
				}
			}
		}()
	}

	p := eng.Producer()
	for b := 0; b < 20; b++ {
		items, deltas := column(512)
		if b == 10 {
			deltas[0] = 0.5 // widens the replica this batch lands in
		}
		p.UpdateColumns(items, deltas)
	}
	p.Close()
	if _, err := eng.Snapshot(); err != nil { // every batch applied
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if n := eng.WidenedReplicas(); n != 1 {
		t.Fatalf("%d replicas widened, want the one the fraction landed in", n)
	}
	if got, want := eng.CounterBytes(), 256*4*(4+8); got != want {
		t.Fatalf("engine counter bytes %d, want %d (one int32 replica, one float64)", got, want)
	}
	if cut.Widened() {
		t.Fatal("the pinned cut widened")
	}
	if got, _ := cut.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatal("the pinned cut changed while its producer's replica widened")
	}
	final, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Widened() {
		t.Fatal("the merge of a widened replica did not widen")
	}
}
