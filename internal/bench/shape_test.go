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
// at bench scale. Seed 1 is the one cmd/sketchbench runs by default.
func TestE15RecoveryExactOnSparse(t *testing.T) {
	for _, seed := range []uint64{1, 47} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tables := RunE15Recovery(Config{Seed: seed, Quick: true})
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
		})
	}
}
