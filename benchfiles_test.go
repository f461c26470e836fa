package repro_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The committed BENCH_<n>.json files are readings of the benchmark declared
// in BENCHMARK.json: for each workload and end-to-end metric, the runs of the
// parent and of the change over alternated pairs, and the statistics a
// verdict is read from. Every statistic is recomputed here from the runs, so a
// hand-edited number or one computed by another rule fails.

type benchDecl struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type benchSide struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

type benchMetric struct {
	Unit      string    `json:"unit"`
	Better    string    `json:"better"`
	Bound     float64   `json:"bound"`
	Parent    benchSide `json:"parent"`
	Change    benchSide `json:"change"`
	RelChange float64   `json:"median_change_rel"`
	Won       int       `json:"pairs_won_by_change"`
	Lost      int       `json:"pairs_lost_by_change"`
	Ties      int       `json:"ties"`
}

type benchReadings struct {
	Pairs     int      `json:"pairs"`
	Seeds     []uint64 `json:"seeds"`
	Workloads map[string]struct {
		Metrics map[string]benchMetric `json:"metrics"`
	} `json:"workloads"`
}

// quartiles returns the first, second and third quartiles of vs by the
// exclusive rule (Python's statistics.quantiles(vs, n=4)), the rule the
// benchmark's -repeat applies.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle run, or the mean of the middle two.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// near reports whether a recorded statistic is the recomputed one, up to the
// last bits a different summation order may move.
func near(recorded, recomputed float64) bool {
	return math.Abs(recorded-recomputed) <= 1e-9*math.Max(math.Abs(recomputed), 1e-300)
}

func TestBenchFilesRecomputeFromRuns(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json readings committed")
	}
	var decl benchDecl
	readJSON(t, "BENCHMARK.json", &decl)
	for _, path := range paths {
		var b benchReadings
		readJSON(t, path, &b)
		if b.Pairs < 2 || b.Pairs != len(b.Seeds) {
			t.Errorf("%s: %d pairs over %d seeds", path, b.Pairs, len(b.Seeds))
		}
		if len(b.Workloads) == 0 {
			t.Errorf("%s: no workloads", path)
		}
		for wname, w := range b.Workloads {
			for _, row := range decl.EndToEnd {
				m, ok := w.Metrics[row.Name]
				if !ok {
					t.Errorf("%s: %s: no %s", path, wname, row.Name)
					continue
				}
				where := path + ": " + wname + ": " + row.Name
				if m.Unit != row.Unit || m.Better != row.Better || m.Bound != row.Bound {
					t.Errorf("%s: unit %q, better %q, bound %v; BENCHMARK.json says %q, %q, %v", where, m.Unit, m.Better, m.Bound, row.Unit, row.Better, row.Bound)
				}
				checkBenchMetric(t, where, b.Pairs, m)
			}
			if len(w.Metrics) != len(decl.EndToEnd) {
				t.Errorf("%s: %s: %d metrics, BENCHMARK.json declares %d end-to-end rows", path, wname, len(w.Metrics), len(decl.EndToEnd))
			}
		}
	}
}

// checkBenchMetric recomputes one metric's statistics from its runs.
func checkBenchMetric(t *testing.T, where string, pairs int, m benchMetric) {
	t.Helper()
	if len(m.Parent.Runs) != pairs || len(m.Change.Runs) != pairs {
		t.Errorf("%s: %d parent and %d change runs for %d pairs", where, len(m.Parent.Runs), len(m.Change.Runs), pairs)
		return
	}
	for _, side := range []struct {
		name string
		s    benchSide
	}{{"parent", m.Parent}, {"change", m.Change}} {
		q1, _, q3 := quartiles(side.s.Runs)
		if med := median(side.s.Runs); !near(side.s.Median, med) || !near(side.s.Q1, q1) || !near(side.s.Q3, q3) {
			t.Errorf("%s: %s median/q1/q3 recorded %v/%v/%v, the runs give %v/%v/%v",
				where, side.name, side.s.Median, side.s.Q1, side.s.Q3, med, q1, q3)
		}
	}
	won, lost := 0, 0
	for i, p := range m.Parent.Runs {
		c := m.Change.Runs[i]
		if m.Better == "higher" {
			p, c = -p, -c
		}
		switch {
		case c < p:
			won++
		case c > p:
			lost++
		}
	}
	if m.Won != won || m.Lost != lost || m.Ties != pairs-won-lost {
		t.Errorf("%s: pairs won/lost/ties recorded %d/%d/%d, the runs give %d/%d/%d", where, m.Won, m.Lost, m.Ties, won, lost, pairs-won-lost)
	}
	if rel := (m.Change.Median - m.Parent.Median) / m.Parent.Median; !near(m.RelChange, rel) {
		t.Errorf("%s: median_change_rel recorded %v, the medians give %v", where, m.RelChange, rel)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
