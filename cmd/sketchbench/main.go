// Command sketchbench regenerates the experiment tables (E1–E10 and E15 in
// internal/bench/DESIGN.md) that reproduce the quantitative claims of the
// survey.
//
// Usage:
//
//	sketchbench -exp e1          # run a single experiment
//	sketchbench -exp all         # run every experiment (default)
//	sketchbench -exp e7 -quick   # reduced problem sizes
//	sketchbench -list            # list experiments and the claims they check
//
// Profiling the hot paths (then inspect with `go tool pprof`):
//
//	sketchbench -exp e2 -cpuprofile cpu.out
//	sketchbench -exp e2 -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
)

// main delegates to run so that run's defers — in particular flushing the
// CPU profile — complete before the process exits with a failure code.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment id (e1..e10, e15) or 'all'")
		seed       = flag.Uint64("seed", 1, "random seed (identical seeds reproduce identical tables)")
		quick      = flag.Bool("quick", false, "run at reduced problem sizes")
		list       = flag.Bool("list", false, "list available experiments and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return 0
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick}
	var experiments []bench.Experiment
	if strings.EqualFold(*exp, "all") {
		experiments = bench.Registry()
	} else {
		e, ok := bench.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "sketchbench: unknown experiment %q (known: %s)\n", *exp, strings.Join(bench.IDs(), ", "))
			return 2
		}
		experiments = []bench.Experiment{e}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sketchbench: creating CPU profile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sketchbench: starting CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	for _, e := range experiments {
		fmt.Printf("== %s: %s\n\n", strings.ToUpper(e.ID), e.Claim)
		for _, table := range e.Run(cfg) {
			table.Fprint(os.Stdout)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sketchbench: creating heap profile: %v\n", err)
			return 1 // the deferred StopCPUProfile still flushes the CPU profile
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sketchbench: writing heap profile: %v\n", err)
			return 1
		}
	}
	return 0
}
