// Package bench is the experiment harness: it regenerates, as printed
// tables, every quantitative claim of the survey (experiments E1–E10 in
// DESIGN.md, plus E15, sparse recovery against the top-k heap over the same
// Count-Min backing). Each experiment builds its synthetic workload, sweeps
// the relevant parameter, runs the hashing-based method and its baselines,
// and reports the metrics the claim is about (recall/precision, measurement
// counts, running times, distortions, leakage).
//
// The same experiment functions back three entry points: the Go benchmarks
// in bench_test.go, the cmd/sketchbench command-line tool, and the
// integration tests that smoke-run every experiment at reduced scale.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config controls the scale of the experiments.
type Config struct {
	// Seed drives all randomness; identical seeds reproduce identical tables.
	Seed uint64
	// Quick shrinks problem sizes so every experiment finishes in well under
	// a second (used by tests); the full-scale runs are the default.
	Quick bool
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	var header strings.Builder
	for i, c := range t.Columns {
		header.WriteString(pad(c, widths[i]))
		header.WriteString("  ")
	}
	fmt.Fprintln(w, strings.TrimRight(header.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(header.String(), " "))))
	for _, row := range t.Rows {
		var line strings.Builder
		for i, cell := range row {
			width := len(cell)
			if i < len(widths) {
				width = widths[i]
			}
			line.WriteString(pad(cell, width))
			line.WriteString("  ")
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
	fmt.Fprintln(w)
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// Experiment couples an identifier and the survey claim it reproduces with
// the function that generates its tables.
type Experiment struct {
	ID    string
	Claim string
	Run   func(cfg Config) []Table
}

// Registry returns every experiment in order: E1..E10, then E15.
func Registry() []Experiment {
	return []Experiment{
		{ID: "e1", Claim: "§1: frequent elements map to heavy buckets; sketches recover them in one pass with limited storage", Run: RunE1HeavyHitters},
		{ID: "e2", Claim: "§1: constant-time per-item processing; hash family choice is secondary", Run: RunE2Throughput},
		{ID: "e3", Claim: "§2: sparse hashing matrices recover k-sparse signals from O(k log n) measurements, close to dense-matrix optimal", Run: RunE3PhaseTransition},
		{ID: "e4", Claim: "§2: sparse-matrix recovery runs in near-linear time vs O(nm) for dense matrices", Run: RunE4RecoveryTime},
		{ID: "e5", Claim: "§3: sparse JL embeddings match dense distortion while running in time proportional to input sparsity", Run: RunE5JL},
		{ID: "e6", Claim: "§3: sketch-and-solve gives near-optimal regression and low-rank approximation almost linearly", Run: RunE6SketchSolve},
		{ID: "e7", Claim: "§4: sparse FFT beats the full FFT whenever k = o(n), and is sublinear for small k", Run: RunE7SFFT},
		{ID: "e8", Claim: "§4: boxcar buckets are leaky; flat-window filters make leakage negligible", Run: RunE8Leakage},
		{ID: "e9", Claim: "§4: sparse recovery over the Boolean cube (Kushilevitz–Mansour) needs far fewer samples than the full transform", Run: RunE9Hadamard},
		{ID: "e10", Claim: "§2 [GM11]: IBLTs list the whole sketched set exactly below a load threshold", Run: RunE10IBLT},
		{ID: "e15", Claim: "§2: the sketch is a linear measurement of the stream, so full sparse recovery reads the same counters the top-k heap does — exact on k-sparse input, global at a latency cost on tails", Run: RunE15Recovery},
	}
}

// Lookup returns the experiment with the given id (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// timeIt measures the wall-clock time of f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// fmtDuration renders a duration with microsecond resolution.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// fmtFloat renders a float with 4 significant decimals.
func fmtFloat(v float64) string { return fmt.Sprintf("%.4f", v) }

// fmtInt renders an integer.
func fmtInt(v int) string { return fmt.Sprintf("%d", v) }
