package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// Shape tests: beyond "the experiment runs", check that the qualitative
// relationships the survey claims actually hold in the generated tables.
// They run at Quick scale, so thresholds are conservative.

// parseCell converts a table cell produced by fmtFloat/fmtDuration into a
// float64 (durations are reported in milliseconds).
func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(cell, "ms")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", cell, err)
	}
	return v
}

// TestE5SparseEmbeddingFasterOnSparseInput: at the smallest input sparsity,
// the sparse JL embedding must be much faster than the dense one.
func TestE5SparseEmbeddingFasterOnSparseInput(t *testing.T) {
	tables := RunE5JL(Config{Seed: 11, Quick: true})
	if len(tables) < 2 {
		t.Fatal("E5 should produce two tables")
	}
	timing := tables[1]
	first := timing.Rows[0] // smallest nnz
	dense := parseCell(t, first[1])
	sparse := parseCell(t, first[2])
	if sparse > dense/2 {
		t.Errorf("sparse JL (%.4fms) not substantially faster than dense (%.4fms) on a sparse input", sparse, dense)
	}
}

// TestE5DistortionComparable: sparse JL distortion should be within a factor
// of two of dense JL at the largest target dimension.
func TestE5DistortionComparable(t *testing.T) {
	tables := RunE5JL(Config{Seed: 13, Quick: true})
	dist := tables[0]
	last := dist.Rows[len(dist.Rows)-1]
	dense := parseCell(t, last[1])
	sparse := parseCell(t, last[2])
	if sparse > 2*dense+0.02 {
		t.Errorf("sparse JL distortion %.4f much worse than dense %.4f", sparse, dense)
	}
}

// TestE8FlatWindowBeatsBoxcar: the flat-window filter's estimation error must
// be below the boxcar's, and the end-to-end boxcar recovery must be worse.
func TestE8FlatWindowBeatsBoxcar(t *testing.T) {
	tables := RunE8Leakage(Config{Seed: 17, Quick: true})
	filters := tables[0]
	var boxErr, flatErr float64
	for _, row := range filters.Rows {
		if row[0] == "boxcar" {
			boxErr = parseCell(t, row[3])
		}
		if strings.HasPrefix(row[0], "flat delta=1e-9") {
			flatErr = parseCell(t, row[3])
		}
	}
	if flatErr >= boxErr {
		t.Errorf("flat-window estimation error %.4f not better than boxcar %.4f", flatErr, boxErr)
	}
	endToEnd := tables[1]
	for _, row := range endToEnd.Rows {
		flat := parseCell(t, row[1])
		box := parseCell(t, row[2])
		if flat > box {
			t.Errorf("k=%s: flat-window end-to-end error %.4f worse than boxcar %.4f", row[0], flat, box)
		}
	}
}

// TestE6SketchedRegressionNearOptimal: the sketched residual must stay within
// 15% of the exact residual in the quick configuration.
func TestE6SketchedRegressionNearOptimal(t *testing.T) {
	tables := RunE6SketchSolve(Config{Seed: 19, Quick: true})
	ls := tables[0]
	for _, row := range ls.Rows {
		ratio := parseCell(t, row[2])
		if ratio > 1.15 {
			t.Errorf("rows=%s: sketched/exact residual ratio %.4f exceeds 1.15", row[0], ratio)
		}
	}
}

// TestE11ShardedIngestExact: every engine configuration must report exactly
// zero estimate deviation from the single-threaded sketch — linearity makes
// the merge exact, independent of shard count or scheduling. (The speedup
// column is hardware-dependent and deliberately not asserted here.)
func TestE11ShardedIngestExact(t *testing.T) {
	tbl := RunE11ShardedIngest(Config{Seed: 29, Quick: true})[0]
	engineRows := 0
	for _, row := range tbl.Rows {
		if row[3] == "-" {
			continue // single-thread baseline row
		}
		engineRows++
		if v := parseCell(t, row[3]); v != 0 {
			t.Errorf("%s: max estimate deviation %v, want exactly 0", row[0], v)
		}
	}
	if engineRows < 3 {
		t.Fatalf("expected at least 3 engine rows, got %d", engineRows)
	}
}

// TestE12MultiProducerExact: every producer count, through both the mutex
// baseline and the lock-free handles, must report exactly zero estimate
// deviation from the single-threaded sketch — the acceptance invariant for
// the multi-producer pipeline. (Speedup is hardware-dependent and not
// asserted.)
func TestE12MultiProducerExact(t *testing.T) {
	tbl := RunE12MultiProducerIngest(Config{Seed: 31, Quick: true})[0]
	if len(tbl.Rows) < 4 {
		t.Fatalf("expected at least 4 producer rows, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if v := parseCell(t, row[4]); v != 0 {
			t.Errorf("%s producers: max estimate deviation %v, want exactly 0", row[0], v)
		}
	}
}

// TestE13BatchIngestExact: every batched configuration — sketch-level
// UpdateBatch at any chunk size, and the engine's columnar path — must
// report exactly zero estimate deviation from the per-item reference. This
// is the bit-identical-batch contract; speedup is hardware-dependent and
// not asserted.
func TestE13BatchIngestExact(t *testing.T) {
	tables := RunE13BatchIngest(Config{Seed: 37, Quick: true})
	if len(tables) != 2 {
		t.Fatalf("E13 should produce two tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		batchRows := 0
		for _, row := range tbl.Rows {
			if row[3] == "-" {
				continue // scalar baseline row
			}
			batchRows++
			if v := parseCell(t, row[3]); v != 0 {
				t.Errorf("%s: %s: max estimate deviation %v, want exactly 0", tbl.Title, row[0], v)
			}
		}
		if batchRows < 2 {
			t.Fatalf("%s: expected at least 2 batch rows, got %d", tbl.Title, batchRows)
		}
	}
}

// TestE14DeltaGossipExactAndSmaller: both shipping strategies must converge
// every node onto the single-threaded reference exactly (deviation 0), and
// delta shipping must move well under half the bytes full-snapshot shipping
// does at the same convergence cadence — the whole point of gossiping
// differences.
func TestE14DeltaGossipExactAndSmaller(t *testing.T) {
	tbl := RunE14DeltaGossip(Config{Seed: 41, Quick: true})[0]
	if len(tbl.Rows) != 2 {
		t.Fatalf("E14 should produce 2 strategy rows, got %d", len(tbl.Rows))
	}
	bytesFor := map[string]float64{}
	for _, row := range tbl.Rows {
		if v := parseCell(t, row[4]); v != 0 {
			t.Errorf("%s: max estimate deviation %v, want exactly 0", row[0], v)
		}
		bytesFor[row[0]] = parseCell(t, row[2])
	}
	full, delta := bytesFor["full-snapshot"], bytesFor["delta-gossip"]
	if full == 0 || delta == 0 {
		t.Fatalf("missing strategy rows: %v", bytesFor)
	}
	if delta >= full/2 {
		t.Errorf("delta gossip shipped %.0f bytes, full snapshots %.0f: expected > 2x saving", delta, full)
	}
}

// TestE2MultiplyShiftFastest: the multiply-shift hash family should give the
// highest update throughput among the Count-Min variants. A quick-mode rate
// is a few milliseconds of wall clock, which one descheduling halves, so each
// family is given its best of three runs: noise only ever slows a run down.
func TestE2MultiplyShiftFastest(t *testing.T) {
	var mulshift, poly4 float64
	for run := 0; run < 3; run++ {
		tbl := RunE2Throughput(Config{Seed: 23, Quick: true})[0]
		for _, row := range tbl.Rows {
			rate := parseCell(t, row[2])
			switch row[0] {
			case "count-min/mulshift":
				mulshift = max(mulshift, rate)
			case "count-min/poly4":
				poly4 = max(poly4, rate)
			}
		}
	}
	if mulshift <= poly4 {
		t.Errorf("multiply-shift throughput %.2fM not above poly4 %.2fM", mulshift, poly4)
	}
}

// TestE15RecoveryExactOnSparse: on the planted k-sparse stream, every
// recovery algorithm and the heap must reproduce the support with deviation
// exactly 0 and negligible estimate error — the served /v1/recover invariant
// at bench scale.
func TestE15RecoveryExactOnSparse(t *testing.T) {
	tables := RunE15Recovery(Config{Seed: 47, Quick: true})
	if len(tables) != 2 {
		t.Fatalf("E15 should produce 2 tables, got %d", len(tables))
	}
	exact := tables[0]
	if len(exact.Rows) < 5 {
		t.Fatalf("E15 exact table should have the heap plus 4 recovery rows, got %d", len(exact.Rows))
	}
	for _, row := range exact.Rows {
		if v := parseCell(t, row[1]); v != 0 {
			t.Errorf("%s: support deviation %v, want exactly 0", row[0], v)
		}
		if v := parseCell(t, row[2]); v > 1e-3 {
			t.Errorf("%s: max estimate error %v on a k-sparse stream", row[0], v)
		}
	}
	noisy := tables[1]
	for _, row := range noisy.Rows {
		if v := parseCell(t, row[1]); v < 0.5 {
			t.Errorf("%s: top-k recall %v under Zipf, want at least 0.5", row[0], v)
		}
	}
}

// TestE16PartitionMemoryAndExactness: partition mode must hold exactly one
// sketch's worth of counters at every worker count while replica mode holds
// workers-many, and both modes' estimates must match the single-threaded
// reference with deviation exactly 0 — the "same bits, less memory" claim.
func TestE16PartitionMemoryAndExactness(t *testing.T) {
	tbl := RunE16PartitionMode(Config{Seed: 53, Quick: true})[0]
	if len(tbl.Rows) != 6 {
		t.Fatalf("E16 should produce 6 rows (3 worker counts x 2 modes), got %d", len(tbl.Rows))
	}
	const size = 4096 * 4
	for _, row := range tbl.Rows {
		words := int(parseCell(t, row[1]))
		var workers int
		var mode string
		if _, err := fmt.Sscanf(row[0], "%s %dw", &mode, &workers); err != nil {
			t.Fatalf("unparseable config cell %q: %v", row[0], err)
		}
		switch mode {
		case "replica":
			if words != workers*size {
				t.Errorf("%s: %d counter words, want %d", row[0], words, workers*size)
			}
		case "partition":
			if words != size {
				t.Errorf("%s: %d counter words, want %d (exactly one sketch)", row[0], words, size)
			}
		default:
			t.Fatalf("unknown mode in row %q", row[0])
		}
		if v := parseCell(t, row[len(row)-1]); v != 0 {
			t.Errorf("%s: deviation %v from single-threaded reference, want exactly 0", row[0], v)
		}
	}
}

// TestE17StreamIngestShape: both ingest paths at both batch shapes must land
// bit-identical counters — the deviation column is exactly 0 for every row.
// Throughput ordering is asserted in CI on the full-scale run, not here:
// quick-mode rates on a loaded test machine are noise.
func TestE17StreamIngestShape(t *testing.T) {
	tbl := RunE17StreamIngest(Config{Seed: 61, Quick: true})[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("E17 should produce 4 rows (2 paths x 2 batch shapes), got %d", len(tbl.Rows))
	}
	want := [][2]string{{"post", "256"}, {"stream", "256"}, {"post", "4096"}, {"stream", "4096"}}
	for i, row := range tbl.Rows {
		if row[0] != want[i][0] || row[1] != want[i][1] {
			t.Errorf("row %d is %s/%s, want %s/%s", i, row[0], row[1], want[i][0], want[i][1])
		}
		if v := parseCell(t, row[len(row)-1]); v != 0 {
			t.Errorf("%s batch=%s: deviation %v from single-threaded reference, want exactly 0", row[0], row[1], v)
		}
	}
}
