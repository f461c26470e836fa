package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// TestPartitionGoldenSnapshotBytes replays the sketch package's golden
// fixture recipe (testdata/*.golden were generated by the original
// single-threaded [][]float64 implementation) through BOTH engine modes and
// requires the encoded snapshots to equal the fixtures byte for byte. That
// chains three generations of the code — pre-refactor, replica mode,
// partition mode — into one equality: same seed, same stream, same bytes.
func TestPartitionGoldenSnapshotBytes(t *testing.T) {
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

	cases := []struct {
		file string
		run  func(cfg Config) []byte
	}{
		{"countmin.golden", func(cfg Config) []byte {
			eng := NewCountMin(cfg, cm)
			eng.UpdateColumns(items, deltas)
			out := snapshotBytes(t, eng)
			if _, err := eng.Close(); err != nil {
				t.Fatalf("countmin close: %v", err)
			}
			return out
		}},
		{"countsketch.golden", func(cfg Config) []byte {
			eng := NewCountSketch(cfg, cs)
			eng.UpdateColumns(items, deltas)
			out := snapshotBytes(t, eng)
			if _, err := eng.Close(); err != nil {
				t.Fatalf("countsketch close: %v", err)
			}
			return out
		}},
		{"dyadic.golden", func(cfg Config) []byte {
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
	// set, which is heuristic under any sharding (replica merges re-score a
	// union too). Its counter-level equivalence is pinned by
	// TestCrossModeEquivalence.
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("..", "sketch", "testdata", tc.file))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		repBytes := tc.run(Config{Workers: 3, BatchSize: 64})
		partBytes := tc.run(Config{Workers: 3, BatchSize: 64, Partition: true})
		if !bytes.Equal(repBytes, want) {
			t.Errorf("%s: replica-mode snapshot differs from golden fixture (%d vs %d bytes)", tc.file, len(repBytes), len(want))
		}
		if !bytes.Equal(partBytes, want) {
			t.Errorf("%s: partition-mode snapshot differs from golden fixture (%d vs %d bytes)", tc.file, len(partBytes), len(want))
		}
	}
}

// TestPartitionMoreWorkersThanColumns: with more shards than columns some
// shards own empty ranges; they must idle harmlessly and the result stay
// exact. (Shape 4x3: 8 workers, at most 4 non-empty slices.)
func TestPartitionMoreWorkersThanColumns(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(81), 4, 3)
	single := proto.Clone()
	s := newZipf(82, 1<<10, 20_000)
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
	}
	eng := NewCountMin(Config{Workers: 8, BatchSize: 100, Partition: true}, proto)
	for _, u := range s.Updates {
		eng.Update(u.Item, float64(u.Delta))
	}
	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.CounterData(), merged.CounterData()) {
		t.Fatal("empty-shard partition differs from single-threaded sketch")
	}
	if single.TotalMass() != merged.TotalMass() {
		t.Fatalf("total mass %v != %v", merged.TotalMass(), single.TotalMass())
	}
}

// TestModeAndCounterWords pins partition mode's memory claim: replica mode
// holds sketch-size counters per worker that has seen a batch — none before
// any ingest, workers x once every worker has — partition mode exactly
// sketch-size, in both cases reported by CounterWords.
func TestModeAndCounterWords(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(91), 256, 4)
	size := 256 * 4

	rep := NewCountMin(Config{Workers: 4}, proto)
	if got := rep.Mode(); got != "replica" {
		t.Fatalf("Mode() = %q, want replica", got)
	}
	if got := rep.CounterWords(); got != 0 {
		t.Fatalf("replica CounterWords() before any ingest = %d, want 0", got)
	}
	for i := 0; i < 4; i++ { // one flush per worker, round-robin
		rep.Update(uint64(i), 1)
		rep.Flush()
	}
	if _, err := rep.Snapshot(); err != nil { // the barrier: every batch is applied
		t.Fatal(err)
	}
	if got := rep.CounterWords(); got != 4*size {
		t.Fatalf("replica CounterWords() = %d, want %d", got, 4*size)
	}
	rep.Close()

	part := NewCountMin(Config{Workers: 4, Partition: true}, proto)
	if got := part.Mode(); got != "partition" {
		t.Fatalf("Mode() = %q, want partition", got)
	}
	if got := part.CounterWords(); got != size {
		t.Fatalf("partition CounterWords() = %d, want %d", got, size)
	}
	part.Close()
}

// plainSketch satisfies LinearSketch but has no column-slice view.
type plainSketch []float64

func (p plainSketch) Update(uint64, float64)              {}
func (p plainSketch) UpdateBatch(_ []uint64, _ []float64) {}
func (p plainSketch) Clone() plainSketch                  { return make(plainSketch, len(p)) }
func (p plainSketch) Merge(plainSketch) error             { return nil }
func (p plainSketch) MarshalBinary() ([]byte, error)      { return nil, nil }

// TestGenericNewRejectsPartition: NewLinear has no column view of a replica
// type outside sketch.ColumnSketch, so asking it for partition mode must fail
// loudly at construction, not degrade to replicas.
func TestGenericNewRejectsPartition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLinear with Partition over a non-column type did not panic")
		}
	}()
	NewLinear(Config{Workers: 2, Partition: true}, make(plainSketch, 8), nil)
}
