package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// TestReplicasMaterialiseOnFirstBatch: a replica exists only once its shard
// holds mass. A fresh engine holds none and snapshots as the empty sketch; one
// flush below BatchSize lands on one shard and materialises exactly that one.
func TestReplicasMaterialiseOnFirstBatch(t *testing.T) {
	const width, depth = 128, 4
	proto := sketch.NewHeavyHitterTracker(xrand.New(7), width, depth, 8).Prototype()
	eng := NewTracker(Config{Workers: 4, BatchSize: 1024}, proto)
	if got := eng.CounterWords(); got != 0 {
		t.Fatalf("CounterWords() after NewTracker = %d, want 0", got)
	}
	empty, err := proto.Clone().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, eng); !bytes.Equal(got, empty) {
		t.Fatal("snapshot of an engine with no live shard is not the empty tracker's encoding")
	}
	if got := eng.CounterWords(); got != 0 {
		t.Fatalf("CounterWords() after an empty snapshot = %d, want 0", got)
	}

	for i := 0; i < 10; i++ {
		eng.Update(uint64(i), 1)
	}
	eng.Flush()
	if _, err := eng.Snapshot(); err != nil { // the barrier: the batch is applied
		t.Fatal(err)
	}
	if got := eng.CounterWords(); got != width*depth {
		t.Fatalf("CounterWords() after one flush = %d, want one replica (%d)", got, width*depth)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestModeAndCounterWords pins the replica sharding's memory claim: the
// engine holds sketch-size counters per worker that has seen a batch — none
// before any ingest, workers x once every worker has — as CounterWords
// reports.
func TestModeAndCounterWords(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(91), 256, 4)
	size := 256 * 4

	rep := NewCountMin(Config{Workers: 4}, proto)
	if got := rep.CounterWords(); got != 0 {
		t.Fatalf("CounterWords() before any ingest = %d, want 0", got)
	}
	for i := 0; i < 4; i++ { // one flush per worker, round-robin
		rep.Update(uint64(i), 1)
		rep.Flush()
	}
	if _, err := rep.Snapshot(); err != nil { // the barrier: every batch is applied
		t.Fatal(err)
	}
	if got := rep.CounterWords(); got != 4*size {
		t.Fatalf("CounterWords() = %d, want %d", got, 4*size)
	}
	rep.Close()
}

// TestOneLiveWorkerIsExact: when a single batch is all an engine of four
// workers ever sees, the idle workers contribute nothing and both Snapshot and
// Close equal the single-threaded tracker byte for byte.
func TestOneLiveWorkerIsExact(t *testing.T) {
	const width, depth, k = 64, 4, 64
	items := make([]uint64, 50)
	deltas := make([]float64, len(items))
	r := xrand.New(11)
	for i := range items {
		items[i], deltas[i] = uint64(r.Intn(20)), float64(1+r.Intn(5))
	}
	proto := sketch.NewHeavyHitterTracker(xrand.New(12), width, depth, k).Prototype()
	single := proto.Clone()
	single.UpdateBatch(items, deltas)
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	eng := NewTracker(Config{Workers: 4, BatchSize: 1024}, proto)
	eng.UpdateColumns(items, deltas)
	if got := snapshotBytes(t, eng); !bytes.Equal(got, want) {
		t.Fatal("snapshot differs from the single-threaded tracker")
	}
	if got := eng.CounterWords(); got != width*depth {
		t.Fatalf("CounterWords() = %d, want one replica (%d)", got, width*depth)
	}
	closed, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := closed.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatal("Close differs from the single-threaded tracker")
	}
}

// TestReplicasMaterialiseUnderConcurrentReads: workers clone their replicas
// while other goroutines cut snapshots and read CounterWords. The count only
// ever grows, by whole replicas, every snapshot is a sketch of a prefix of
// the stream, and the final merge is the single-threaded sketch — run under
// -race, this is what orders the worker's clone before its readers.
func TestReplicasMaterialiseUnderConcurrentReads(t *testing.T) {
	const width, depth, workers, producers, perProducer = 64, 3, 4, 3, 2000
	proto := sketch.NewCountMin(xrand.New(21), width, depth).Prototype()
	eng := NewCountMin(Config{Workers: workers, BatchSize: 16, QueueDepth: 1}, proto)
	single := proto.Clone()

	stop := make(chan struct{})
	readers := make(chan error, 2)
	go func() { // CounterWords takes no barrier: it races the clones themselves
		last := 0
		for {
			select {
			case <-stop:
				readers <- nil
				return
			default:
			}
			got := eng.CounterWords()
			if got < last || got%(width*depth) != 0 || got > workers*width*depth {
				readers <- fmt.Errorf("CounterWords() went from %d to %d", last, got)
				return
			}
			last = got
		}
	}()
	go func() {
		var lastMass float64
		for {
			select {
			case <-stop:
				readers <- nil
				return
			default:
			}
			snap, err := eng.Snapshot()
			if err == nil && snap.TotalMass() < lastMass {
				err = fmt.Errorf("snapshot mass fell from %v to %v", lastMass, snap.TotalMass())
			}
			if err != nil {
				readers <- err
				return
			}
			lastMass = snap.TotalMass()
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		for i := 0; i < perProducer; i++ {
			single.Update(uint64(p*perProducer+i)%97, 1)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := eng.Producer()
			defer h.Close()
			for i := 0; i < perProducer; i++ {
				h.Update(uint64(p*perProducer+i)%97, 1)
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-readers; err != nil {
			t.Error(err)
		}
	}
	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, merged), mustMarshal(t, single)) {
		t.Fatal("merged sketch differs from the single-threaded one")
	}
}
