package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tbl := Table{Title: "demo", Columns: []string{"a", "longer"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333333", "4")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer") || !strings.Contains(out, "333333") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 11 {
		t.Fatalf("expected 11 experiments, got %d", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("E3"); !ok {
		t.Error("Lookup should be case-insensitive")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown id should fail")
	}
	if len(IDs()) != 11 {
		t.Error("IDs() should list 11 experiments")
	}
}

// TestAllExperimentsQuick smoke-runs every experiment at reduced scale and
// sanity-checks that each produces at least one non-empty table.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tbl := range tables {
				if len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
					t.Fatalf("%s produced an empty table %q", e.ID, tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Columns) {
						t.Fatalf("%s: row width %d != column count %d in %q", e.ID, len(row), len(tbl.Columns), tbl.Title)
					}
				}
				var buf bytes.Buffer
				tbl.Fprint(&buf)
				if buf.Len() == 0 {
					t.Fatalf("%s: empty rendering", e.ID)
				}
			}
		})
	}
}

// TestE1RecallAtLargeWidth checks the substantive claim behind E1: with
// enough counters, the Count-Min tracker finds essentially all heavy hitters.
func TestE1RecallAtLargeWidth(t *testing.T) {
	tables := RunE1HeavyHitters(Config{Seed: 7, Quick: true})
	tbl := tables[0]
	// The last count-min row (largest width) must have recall close to 1.
	var best float64
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "count-min w=8192") {
			var recall float64
			if _, err := parseFloat(row[2], &recall); err == nil && recall > best {
				best = recall
			}
		}
	}
	if best < 0.95 {
		t.Errorf("count-min recall at the largest width is %.3f, expected > 0.95", best)
	}
}

// TestE10ThresholdShape checks the qualitative IBLT claim: decode succeeds at
// low load and fails at load >= 1.2 for k=4.
func TestE10ThresholdShape(t *testing.T) {
	tbl := RunE10IBLT(Config{Seed: 3, Quick: true})[0]
	var low, high float64
	for _, row := range tbl.Rows {
		var load, k4 float64
		if _, err := parseFloat(row[0], &load); err != nil {
			t.Fatal(err)
		}
		if _, err := parseFloat(row[2], &k4); err != nil {
			t.Fatal(err)
		}
		if load <= 0.31 {
			low = k4
		}
		if load >= 1.19 {
			high = k4
		}
	}
	if low < 0.9 {
		t.Errorf("IBLT decode at load 0.3 succeeded only %.2f of the time", low)
	}
	if high > 0.2 {
		t.Errorf("IBLT decode at load 1.2 succeeded %.2f of the time; expected near 0", high)
	}
}

func parseFloat(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}
