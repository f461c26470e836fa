package repro_test

// One Go benchmark per experiment E1–E10 of internal/bench/DESIGN.md (E15 runs
// under internal/bench's tests). Each benchmark runs the corresponding
// experiment end to end and reports its wall-clock time; the printed tables
// themselves are produced by cmd/sketchbench (or by the experiment functions
// directly). Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks use the Quick configuration so that a full -bench=. sweep
// stays in the tens of seconds; run cmd/sketchbench without -quick for the
// full-scale tables.

import (
	"testing"

	"repro/internal/bench"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := bench.Config{Seed: 1, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := exp.Run(cfg)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkE1HeavyHitters(b *testing.B)    { runExperiment(b, "e1") }
func BenchmarkE2Throughput(b *testing.B)      { runExperiment(b, "e2") }
func BenchmarkE3PhaseTransition(b *testing.B) { runExperiment(b, "e3") }
func BenchmarkE4RecoveryTime(b *testing.B)    { runExperiment(b, "e4") }
func BenchmarkE5JL(b *testing.B)              { runExperiment(b, "e5") }
func BenchmarkE6SketchSolve(b *testing.B)     { runExperiment(b, "e6") }
func BenchmarkE7SFFT(b *testing.B)            { runExperiment(b, "e7") }
func BenchmarkE8Leakage(b *testing.B)         { runExperiment(b, "e8") }
func BenchmarkE9Hadamard(b *testing.B)        { runExperiment(b, "e9") }
func BenchmarkE10IBLT(b *testing.B)           { runExperiment(b, "e10") }
