package repro_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lineBudgets is the committed ceiling on each package's non-test Go lines
// (every .go file in the directory but *_test.go, counted like `wc -l`).
// A change that grows a package raises its ceiling here in the same diff and
// says why in CHANGES.md; a change that shrinks one may lower it. A package
// with no entry, or an entry with no package, fails the test too, so the
// table always names exactly the packages in the tree.
var lineBudgets = map[string]int{
	".":                   43,
	"benchmark":           2538,
	"cmd/hhtop":           378,
	"cmd/sfftdemo":        172,
	"cmd/sketchbench":     101,
	"cmd/sketchd":         248,
	"examples/aggregate":  291,
	"examples/features":   127,
	"examples/imaging":    95,
	"examples/netflow":    66,
	"examples/quickstart": 79,
	"examples/reconcile":  105,
	"examples/spectrum":   156,
	"internal/bench":      1173,
	"internal/chaostest":  543,
	"internal/core":       344,
	"internal/cs":         567,
	"internal/engine":     985,
	"internal/fourier":    342,
	"internal/frame":      187,
	"internal/hashing":    651,
	"internal/jl":         385,
	"internal/linalg":     272,
	"internal/mat":        303,
	"internal/server":     6076,
	"internal/sfft":       905,
	"internal/sketch":     4594,
	"internal/stream":     262,
	"internal/vec":        395,
	"internal/xrand":      243,
}

// packageLines counts the non-test Go lines of every directory under the
// repository root that holds any, skipping hidden directories and testdata.
func packageLines(t *testing.T) map[string]int {
	t.Helper()
	lines := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(data, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestLineBudgets(t *testing.T) {
	lines := packageLines(t)
	var pkgs []string
	for pkg := range lines {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	total := 0
	for _, pkg := range pkgs {
		n := lines[pkg]
		total += n
		ceiling, ok := lineBudgets[pkg]
		switch {
		case !ok:
			t.Errorf("%s: %d non-test lines and no ceiling in lineBudgets", pkg, n)
		case n > ceiling:
			t.Errorf("%s: %d non-test lines, over its ceiling of %d", pkg, n, ceiling)
		}
	}
	for pkg := range lineBudgets {
		if _, ok := lines[pkg]; !ok {
			t.Errorf("lineBudgets names %s, which holds no non-test Go file", pkg)
		}
	}
	t.Logf("%d non-test lines in %d packages", total, len(pkgs))
}
