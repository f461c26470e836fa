package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// newZipf builds a deterministic test stream.
func newZipf(seed uint64, universe uint64, length int) *stream.Stream {
	return stream.Zipf(xrand.New(seed), universe, length, 1.1)
}

// TestCountMinShardingIsExact: the merged result of a 4-worker engine must
// equal — counter for counter — the single-threaded sketch fed the same
// stream. This is the linearity law the whole engine rests on.
func TestCountMinShardingIsExact(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(1), 512, 4)
	single := proto.Clone()
	s := newZipf(2, 1<<14, 100_000)
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
	}

	for _, workers := range []int{1, 3, 4, 8} {
		eng := NewCountMin(Config{Workers: workers, BatchSize: 997}, proto)
		for _, u := range s.Updates {
			eng.Update(u.Item, float64(u.Delta))
		}
		merged, err := eng.Close()
		if err != nil {
			t.Fatalf("workers=%d: close: %v", workers, err)
		}
		if !slices.Equal(single.CounterData(), merged.CounterData()) {
			t.Fatalf("workers=%d: merged counters differ from single-threaded sketch", workers)
		}
		if single.TotalMass() != merged.TotalMass() {
			t.Fatalf("workers=%d: total mass %v != %v", workers, merged.TotalMass(), single.TotalMass())
		}
		for item := uint64(0); item < 1<<14; item += 17 {
			if a, b := single.Estimate(item), merged.Estimate(item); a != b {
				t.Fatalf("workers=%d: estimate(%d) %v != %v", workers, item, a, b)
			}
		}
	}
}

// TestCountSketchShardingIsExact: the same law for Count-Sketch, whose
// median estimator must be evaluated over an identical counter matrix.
func TestCountSketchShardingIsExact(t *testing.T) {
	proto := sketch.NewCountSketch(xrand.New(3), 512, 5)
	single := proto.Clone()
	s := newZipf(4, 1<<14, 100_000)
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
	}

	eng := NewCountSketch(Config{Workers: 4}, proto)
	for _, u := range s.Updates {
		eng.Update(u.Item, float64(u.Delta))
	}
	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.CounterData(), merged.CounterData()) {
		t.Fatal("merged counters differ from single-threaded sketch")
	}
	for item := uint64(0); item < 1<<14; item += 17 {
		if a, b := single.Estimate(item), merged.Estimate(item); a != b {
			t.Fatalf("estimate(%d) %v != %v", item, a, b)
		}
	}
}

// TestConcurrentProducersExact: the multi-producer law. P goroutines ingest
// disjoint slices of one stream through private handles — no shared locks —
// and the merged Close must still equal the single-threaded sketch counter
// for counter. Run under -race this is also the data-race oracle for the
// whole producer path.
func TestConcurrentProducersExact(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(21), 512, 4)
	single := proto.Clone()
	s := newZipf(22, 1<<14, 120_000)
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
	}

	for _, producers := range []int{1, 2, 4, 8} {
		eng := NewCountMin(Config{Workers: 4, BatchSize: 503}, proto)
		var wg sync.WaitGroup
		for pid := 0; pid < producers; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				p := eng.Producer()
				defer p.Close()
				for i := pid; i < len(s.Updates); i += producers {
					u := s.Updates[i]
					p.Update(u.Item, float64(u.Delta))
				}
			}(pid)
		}
		wg.Wait()
		merged, err := eng.Close()
		if err != nil {
			t.Fatalf("producers=%d: close: %v", producers, err)
		}
		if !slices.Equal(single.CounterData(), merged.CounterData()) {
			t.Fatalf("producers=%d: merged counters differ from single-threaded sketch", producers)
		}
		if single.TotalMass() != merged.TotalMass() {
			t.Fatalf("producers=%d: total mass %v != %v", producers, merged.TotalMass(), single.TotalMass())
		}
	}
}

// TestSnapshotDuringConcurrentIngest: barriers and producers may overlap.
// Snapshots taken while producers are mid-stream must be internally
// consistent (every included update counted exactly once), and the final
// Close must still be exact. The mass check works because every update has
// delta 1: any batch double-counted or dropped by a racy barrier would show
// up as a wrong total.
func TestSnapshotDuringConcurrentIngest(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(23), 256, 4)
	single := proto.Clone()
	const producers, perProducer = 4, 30_000
	eng := NewCountMin(Config{Workers: 3, BatchSize: 128}, proto)

	var wg sync.WaitGroup
	for pid := 0; pid < producers; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			p := eng.Producer()
			defer p.Close()
			for i := 0; i < perProducer; i++ {
				p.Update(uint64(pid*perProducer+i)%4096, 1)
			}
		}(pid)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			snap, err := eng.Snapshot()
			if err != nil {
				t.Errorf("mid-stream snapshot: %v", err)
				return
			}
			if mass := snap.TotalMass(); mass < 0 || mass > producers*perProducer {
				t.Errorf("mid-stream snapshot mass %v out of range [0, %d]", mass, producers*perProducer)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	for i := 0; i < producers*perProducer; i++ {
		single.Update(uint64(i)%4096, 1)
	}
	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.CounterData(), merged.CounterData()) {
		t.Fatal("concurrent snapshots perturbed the final merge")
	}
}

// TestDyadicEngineIsExact: the NewDyadic constructor — levels are CountMins,
// so the clone/merge law applies level-wise and the sharded hierarchy
// answers quantile and range queries exactly like the single-threaded one.
func TestDyadicEngineIsExact(t *testing.T) {
	proto := sketch.NewDyadic(xrand.New(25), 12, 256, 4)
	single := proto.Clone()
	s := newZipf(26, 1<<12, 60_000)
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
	}

	eng := NewDyadic(Config{Workers: 4, BatchSize: 251}, proto)
	var wg sync.WaitGroup
	const producers = 4
	for pid := 0; pid < producers; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			p := eng.Producer()
			defer p.Close()
			for i := pid; i < len(s.Updates); i += producers {
				u := s.Updates[i]
				p.Update(u.Item, float64(u.Delta))
			}
		}(pid)
	}
	wg.Wait()
	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 1<<12; item += 11 {
		if a, b := single.Estimate(item), merged.Estimate(item); a != b {
			t.Fatalf("estimate(%d): single %v != sharded %v", item, a, b)
		}
	}
	for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		if a, b := single.Quantile(phi), merged.Quantile(phi); a != b {
			t.Fatalf("Quantile(%v): single %v != sharded %v", phi, a, b)
		}
	}
	if a, b := single.RangeSum(100, 2000), merged.RangeSum(100, 2000); a != b {
		t.Fatalf("RangeSum: single %v != sharded %v", a, b)
	}
}

// TestDyadicEngineWireMerge: the Dyadic decoder NewDyadic installs — one
// engine's encoded snapshot passes another's DecodeReplica and merges into its
// snapshot exactly, and incompatible hierarchies are refused.
func TestDyadicEngineWireMerge(t *testing.T) {
	proto := sketch.NewDyadic(xrand.New(27), 10, 128, 3)
	single := proto.Clone()
	s := newZipf(28, 1<<10, 20_000)
	half := len(s.Updates) / 2

	engA := NewDyadic(Config{Workers: 2}, proto)
	engB := NewDyadic(Config{Workers: 3}, proto)
	for i, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
		if i < half {
			engA.Update(u.Item, float64(u.Delta))
		} else {
			engB.Update(u.Item, float64(u.Delta))
		}
	}
	wire := snapshotBytes(t, engB)
	if _, err := engB.Close(); err != nil {
		t.Fatal(err)
	}
	merged, err := engA.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := mergeOverWire(engA, merged, wire); err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 1<<10; item += 7 {
		if a, b := single.Estimate(item), merged.Estimate(item); a != b {
			t.Fatalf("estimate(%d): single %v != merged-over-wire %v", item, a, b)
		}
	}

	// Foreign seeds and mismatched universes must be refused.
	engC := NewDyadic(Config{Workers: 2}, proto)
	foreign, err := sketch.NewDyadic(xrand.New(99), 10, 128, 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engC.DecodeReplica(foreign); err == nil {
		t.Error("foreign hash seeds: expected error")
	}
	wrongU, err := sketch.NewDyadic(xrand.New(27), 11, 128, 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engC.DecodeReplica(wrongU); err == nil {
		t.Error("mismatched universe: expected error")
	}
	if _, err := engC.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenSnapshotBytes replays the sketch package's golden fixture recipe
// (testdata/*.golden were generated by the original single-threaded
// [][]float64 implementation) through a 3-worker engine and requires the
// encoded snapshots to equal the fixtures byte for byte. That chains the
// pre-refactor code and the sharded engine into one equality: same seed, same
// stream, same bytes.
func TestGoldenSnapshotBytes(t *testing.T) {
	r := xrand.New(7)
	sr := xrand.New(99)
	items := make([]uint64, 500)
	deltas := make([]float64, 500)
	for i := range items {
		items[i] = sr.Uint64n(1 << 30)
		deltas[i] = float64(sr.Uint64n(9)) - 3.5
	}

	// Construction order matters: each sketch draws its seed from the shared
	// r in exactly the order the fixture generator did, so every prototype
	// below is hash-identical to the one that wrote its fixture.
	cm := sketch.NewCountMin(r, 37, 4)
	cs := sketch.NewCountSketch(r, 41, 5)
	_ = sketch.NewBloomFilter(r, 997, 3)
	_ = sketch.NewIBLT(r, 64, 3)
	_ = sketch.NewHeavyHitterTracker(r, 53, 3, 8)
	dy := sketch.NewDyadic(r, 12, 29, 3)

	dyItems := make([]uint64, len(items))
	for i := range items {
		dyItems[i] = items[i] % (1 << 12)
	}

	cfg := Config{Workers: 3, BatchSize: 64}
	cases := []struct {
		file string
		run  func() []byte
	}{
		{"countmin.golden", func() []byte {
			eng := NewCountMin(cfg, cm)
			eng.UpdateColumns(items, deltas)
			out := snapshotBytes(t, eng)
			if _, err := eng.Close(); err != nil {
				t.Fatalf("countmin close: %v", err)
			}
			return out
		}},
		{"countsketch.golden", func() []byte {
			eng := NewCountSketch(cfg, cs)
			eng.UpdateColumns(items, deltas)
			out := snapshotBytes(t, eng)
			if _, err := eng.Close(); err != nil {
				t.Fatalf("countsketch close: %v", err)
			}
			return out
		}},
		{"dyadic.golden", func() []byte {
			eng := NewDyadic(cfg, dy)
			eng.UpdateColumns(dyItems, deltas)
			out := snapshotBytes(t, eng)
			if _, err := eng.Close(); err != nil {
				t.Fatalf("dyadic close: %v", err)
			}
			return out
		}},
	}
	// The tracker fixture is excluded: its encoding includes the candidate
	// set, which is heuristic under sharding (merges re-score a union). Its
	// counter-level equivalence is pinned by TestCrossModeEquivalence.
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("..", "sketch", "testdata", tc.file))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		if got := tc.run(); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot differs from golden fixture (%d vs %d bytes)", tc.file, len(got), len(want))
		}
	}
}

// TestProducerLifecycle: double Close is a no-op, Flush after Close is a
// no-op, Update after Close panics, and Producer() after Engine.Close
// panics.
func TestProducerLifecycle(t *testing.T) {
	eng := NewCountMin(Config{Workers: 2}, sketch.NewCountMin(xrand.New(29), 64, 2))
	p := eng.Producer()
	p.Update(1, 1)
	p.Close()
	p.Close() // idempotent
	p.Flush() // no-op on a closed handle
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Update on a closed producer did not panic")
			}
		}()
		p.Update(2, 1)
	}()
	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Estimate(1) != 1 {
		t.Fatalf("estimate(1) = %v after handle flush, want 1", merged.Estimate(1))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Producer() after Engine.Close did not panic")
			}
		}()
		eng.Producer()
	}()
}

// TestSnapshotMidStream: a snapshot taken mid-stream must equal a
// single-threaded sketch fed exactly the prefix seen so far, and ingestion
// must continue cleanly afterwards.
func TestSnapshotMidStream(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(5), 256, 4)
	single := proto.Clone()
	s := newZipf(6, 1<<12, 50_000)

	eng := NewCountMin(Config{Workers: 4, BatchSize: 64}, proto)
	half := len(s.Updates) / 2
	for _, u := range s.Updates[:half] {
		single.Update(u.Item, float64(u.Delta))
		eng.Update(u.Item, float64(u.Delta))
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.CounterData(), snap.CounterData()) {
		t.Fatal("mid-stream snapshot differs from single-threaded prefix sketch")
	}

	for _, u := range s.Updates[half:] {
		single.Update(u.Item, float64(u.Delta))
		eng.Update(u.Item, float64(u.Delta))
	}
	final, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.CounterData(), final.CounterData()) {
		t.Fatal("final merge differs from single-threaded sketch")
	}
	// The snapshot must be a frozen copy, untouched by later ingestion.
	if snap.TotalMass() != float64(half) {
		t.Fatalf("snapshot total mass %v changed after later updates (want %d)", snap.TotalMass(), half)
	}
}

// TestTrackerShardingFindsHeavyHitters: the sharded tracker must report
// every planted heavy hitter with the exact merged Count-Min estimates.
func TestTrackerShardingFindsHeavyHitters(t *testing.T) {
	s, planted := stream.PlantedHeavyHitters(xrand.New(7), 1<<14, 60_000, 10, 0.5)
	proto := sketch.NewHeavyHitterTracker(xrand.New(8), 2048, 4, 64)
	single := proto.Clone()
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
	}

	eng := NewTracker(Config{Workers: 4}, proto)
	for _, u := range s.Updates {
		eng.Update(u.Item, float64(u.Delta))
	}
	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}

	reported := map[uint64]bool{}
	for _, ic := range merged.HeavyHitters(0.01) {
		reported[ic.Item] = true
	}
	for _, item := range planted {
		if !reported[item] {
			t.Errorf("planted heavy hitter %d missing from sharded tracker report", item)
		}
		if a, b := single.Estimate(item), merged.Estimate(item); a != b {
			t.Errorf("estimate(%d): single %v != sharded %v", item, a, b)
		}
	}
}

// TestUpdateBatchAndFlush: batch ingestion and explicit flush paths.
func TestUpdateBatchAndFlush(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(9), 128, 3)
	single := proto.Clone()
	eng := NewCountMin(Config{Workers: 2, BatchSize: 1000}, proto)

	items := make([]uint64, 0, 123)
	deltas := make([]float64, 0, 123)
	for i := uint64(0); i < 123; i++ {
		items = append(items, i%40)
		deltas = append(deltas, 2)
		single.Update(i%40, 2)
	}
	eng.UpdateColumns(items, deltas)
	eng.Flush() // partial batch (123 < 1000) must become visible
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.CounterData(), snap.CounterData()) {
		t.Fatal("flush did not make the partial batch visible to Snapshot")
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateColumnsExact: the columnar ingestion path — caller columns bulk-
// copied into producer buffers, dispatched whole, applied via the replicas'
// UpdateBatch — must merge to exactly the single-threaded sketch, for column
// slices of every awkward size (smaller than, equal to and spanning the
// producer batch size).
func TestUpdateColumnsExact(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(31), 256, 4)
	single := proto.Clone()
	s := newZipf(33, 1<<12, 30_000)
	items := make([]uint64, len(s.Updates))
	deltas := make([]float64, len(s.Updates))
	for i, u := range s.Updates {
		items[i], deltas[i] = u.Item, float64(u.Delta)
	}
	single.UpdateBatch(items, deltas)

	eng := NewCountMin(Config{Workers: 3, BatchSize: 100}, proto)
	sizes := []int{1, 99, 100, 101, 1000, 7}
	at := 0
	for i := 0; at < len(items); i++ {
		n := sizes[i%len(sizes)]
		if at+n > len(items) {
			n = len(items) - at
		}
		eng.UpdateColumns(items[at:at+n], deltas[at:at+n])
		at += n
	}
	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.CounterData(), merged.CounterData()) {
		t.Fatal("columnar engine ingestion differs from single-threaded sketch")
	}
	if single.TotalMass() != merged.TotalMass() {
		t.Fatalf("total mass: single %v, engine %v", single.TotalMass(), merged.TotalMass())
	}
}

// TestUpdateColumnsLengthMismatchPanics pins the contract violation to a
// panic rather than silently zipping unequal columns.
func TestUpdateColumnsLengthMismatchPanics(t *testing.T) {
	eng := NewCountMin(Config{Workers: 1}, sketch.NewCountMin(xrand.New(35), 64, 2))
	defer eng.Close()
	defer func() {
		if recover() == nil {
			t.Error("UpdateColumns length mismatch did not panic")
		}
	}()
	eng.UpdateColumns(make([]uint64, 3), make([]float64, 2))
}

// TestMergeEncodedAndSnapshotEncoded: the wire-format path between two
// engines — one's encoded snapshot, decoded by the other's DecodeReplica and
// merged into its snapshot, reproduces the single-threaded sketch exactly.
func TestMergeEncodedAndSnapshotEncoded(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(13), 256, 4)
	single := proto.Clone()
	s := newZipf(14, 1<<12, 30_000)
	half := len(s.Updates) / 2

	engA := NewCountMin(Config{Workers: 2}, proto)
	engB := NewCountMin(Config{Workers: 3}, proto)
	for i, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
		if i < half {
			engA.Update(u.Item, float64(u.Delta))
		} else {
			engB.Update(u.Item, float64(u.Delta))
		}
	}
	wire := snapshotBytes(t, engB)
	if _, err := engB.Close(); err != nil {
		t.Fatal(err)
	}
	merged, err := engA.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := mergeOverWire(engA, merged, wire); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.CounterData(), merged.CounterData()) {
		t.Fatal("merge-over-the-wire engine differs from single-threaded sketch")
	}
}

// TestMergeEncodedRejectsIncompatible: DecodeReplica must refuse wrong
// dimensions, foreign seeds and junk with an error, leaving the engine usable.
func TestMergeEncodedRejectsIncompatible(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(15), 256, 4)
	eng := NewCountMin(Config{Workers: 2}, proto)

	wrongDims, err := sketch.NewCountMin(xrand.New(15), 64, 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DecodeReplica(wrongDims); err == nil {
		t.Error("mismatched dimensions: expected error")
	}
	wrongSeed, err := sketch.NewCountMin(xrand.New(16), 256, 4).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DecodeReplica(wrongSeed); err == nil {
		t.Error("foreign hash seed: expected error")
	}
	if _, err := eng.DecodeReplica([]byte("junk")); err == nil {
		t.Error("junk bytes: expected error")
	}
	// Still alive.
	eng.Update(1, 1)
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The CountSketch decoder enforces the same compatibility contract.
	csProto := sketch.NewCountSketch(xrand.New(15), 256, 5)
	csEng := NewCountSketch(Config{Workers: 2}, csProto)
	foreign, err := sketch.NewCountSketch(xrand.New(99), 256, 5).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csEng.DecodeReplica(foreign); err == nil {
		t.Error("CountSketch foreign hash seed: expected error")
	}
	if _, err := csEng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerMergeEncodedAcceptsBareCountMin: a tracker engine's decoder must
// accept both full tracker snapshots and bare Count-Min counters, each merging
// exactly into the engine's snapshot.
func TestTrackerMergeEncodedAcceptsBareCountMin(t *testing.T) {
	proto := sketch.NewHeavyHitterTracker(xrand.New(17), 512, 4, 16)
	eng := NewTracker(Config{Workers: 2}, proto)
	eng.Update(5, 3)

	peer := sketch.NewHeavyHitterTracker(xrand.New(17), 512, 4, 16)
	peer.Update(5, 4)
	peer.Update(9, 2)

	// Full tracker snapshot.
	trackerBytes, err := peer.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := mergeOverWire(eng, snap, trackerBytes); err != nil {
		t.Fatal(err)
	}
	if got := snap.Estimate(5); got != 7 {
		t.Fatalf("estimate(5) = %v after tracker merge, want 7", got)
	}

	// A bare CountMin sharing the seed: merging it adds to item 9's count.
	cm := sketch.NewCountMin(xrand.New(17), 512, 4)
	cm.Update(9, 1)
	if err := mergeOverWire(eng, snap, mustMarshal(t, cm)); err != nil {
		t.Fatal(err)
	}
	if got := snap.Estimate(9); got != 3 {
		t.Fatalf("estimate(9) = %v after bare CountMin merge, want 3", got)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotBytes cuts eng's snapshot and encodes it — what a transport ships.
func snapshotBytes[S LinearSketch[S]](t *testing.T, eng *Engine[S]) []byte {
	t.Helper()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mergeOverWire folds encoded replica bytes into dst the way a transport
// does: eng's DecodeReplica is the gatekeeper, the sketch's own Merge the sum.
func mergeOverWire[S LinearSketch[S]](eng *Engine[S], dst S, data []byte) error {
	src, err := eng.DecodeReplica(data)
	if err != nil {
		return err
	}
	return dst.Merge(src)
}

func mustMarshal(t *testing.T, cm *sketch.CountMin) []byte {
	t.Helper()
	data, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConservativeProtoRejected: conservative update is not linear, so the
// engine must refuse the prototype up front rather than ingest a whole
// stream and fail at merge time.
func TestConservativeProtoRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCountMin accepted a conservative-update prototype")
		}
	}()
	NewCountMin(Config{Workers: 2}, sketch.NewCountMin(xrand.New(1), 64, 2, sketch.WithConservativeUpdate()))
}

// TestClosedEngineErrors: operations after Close must fail cleanly.
func TestClosedEngineErrors(t *testing.T) {
	eng := NewCountMin(Config{Workers: 2}, sketch.NewCountMin(xrand.New(10), 64, 2))
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Close(); err != ErrClosed {
		t.Fatalf("second Close: got %v, want ErrClosed", err)
	}
	if _, err := eng.Snapshot(); err != ErrClosed {
		t.Fatalf("Snapshot after Close: got %v, want ErrClosed", err)
	}
}
