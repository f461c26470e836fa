// Command benchmark is the repository's benchmark: it starts sketchd
// daemons in-process on loopback sockets, drives one of four workloads at
// them from the inputs a seed generates, checks that every daemon answers
// bit-for-bit what a single-threaded run would, and prints every metric by
// name. See README.md in this directory.
//
//	go run ./benchmark -workload post_small -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// instances is how many times an untraced run sets the system up and measures
// it.
const instances = 5

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "seed the run's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "0: print the end-to-end metrics; 1: trace the client calls, run the ladder and print the per-layer metrics")
		traceOut = flag.String("trace-out", "", "where -trace 1 writes its spans (default .bench_build/trace/<workload>-<seed>.jsonl)")
		repeat   = flag.Int("repeat", 0, "run N times in child processes on seeds seed..seed+N-1 and print each metric's median, quartiles and spread")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var wls []workload
	if *name == "all" {
		wls = workloads
	} else if wl, ok := findWorkload(*name); ok {
		wls = []workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	for _, wl := range wls {
		var err error
		switch {
		case *repeat > 0:
			err = runRepeated(wl, *seed, *seconds, *trace, *repeat)
		default:
			out := *traceOut
			if out == "" {
				out = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", wl.name, *seed))
			}
			var res *result
			if res, err = runOnce(wl, *seed, *seconds, *trace == 1, out); err == nil {
				err = res.print(wl.name, *seed)
			}
		}
		if err != nil {
			// No result line: an inexact or broken run has no metrics.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
			os.Exit(1)
		}
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// runOnce is one run of one workload: untraced it reports the end-to-end
// metrics, traced the per-layer ones.
//
// An untraced run measures `instances` freshly set-up systems in turn, each
// for its share of the run's seconds, and reports the median of each metric
// over them. Where a daemon's counters, heap and goroutines land differs from
// one set-up to the next and moves its rate by up to a tenth for as long as it
// lives (two windows on one set-up agree within 2%), so one set-up per run
// would hand that draw to the run-to-run spread; the repeated set-ups are also
// what makes setup_s a median. Every time and rate is reported on the nominal
// box (yardstick.go); what the clock read is kept beside it for the printout.
func runOnce(wl workload, seed uint64, seconds float64, traced bool, traceOut string) (*result, error) {
	if traced {
		return runTraced(wl, seed, seconds, traceOut)
	}
	y, err := newYardstick()
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	defer y.close()
	measured, nominal := make(map[string][]float64), make(map[string][]float64)
	attempted, failed := 0, 0
	for i := 0; i < instances; i++ {
		paceBefore := y.measure()
		start := time.Now()
		b, err := setUp(wl, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup := time.Since(start).Seconds()
		setupScale := toNominal([]float64{paceBefore, y.measure()})
		w, err := b.window(seconds/instances, y, nil, nil)
		if err != nil {
			b.close()
			return nil, err
		}
		ws, rs := w.writeScale, w.readScale
		writeRate, writeTail := 1/ws, ws
		if wl.paceHz > 0 {
			// A paced writer's rate is the offered one, and its tail did not
			// move with the box's pace from the quietest hour to the busiest.
			writeRate, writeTail = 1, 1
		}
		// Each metric as the clock read it, and what brings it to the nominal box.
		for _, m := range []struct {
			name       string
			raw, scale float64
		}{
			{"setup_s", setup, setupScale},
			{"updates_per_s", w.writes.rate(float64(wl.opSize())), writeRate},
			{"write_p50_ms", w.writes.latencyMs(50), ws},
			{"write_p99_ms", w.writes.latencyMs(99), writeTail},
			{"query_p50_ms", w.reads.latencyMs(50), rs},
			{"query_p99_ms", w.reads.latencyMs(99), rs},
			{"keys_per_s", w.reads.rate(queryKeys), 1 / rs},
			{"wire_bytes_per_update", float64(w.wireBytes) / float64(w.updates), 1},
			{"live_heap_mb", liveHeapMiB() - b.heapBase, 1},
		} {
			measured[m.name] = append(measured[m.name], m.raw)
			nominal[m.name] = append(nominal[m.name], m.raw*m.scale)
		}
		attempted, failed = attempted+w.attempted, failed+w.failed
		if err := b.close(); err != nil {
			return nil, err
		}
	}
	if y.err != nil {
		return nil, fmt.Errorf("yardstick: %w", y.err)
	}
	res, err := newResult(endToEndMetrics, medians(nominal), attempted, failed)
	if err != nil {
		return nil, err
	}
	res.measured, res.pace = medians(measured), median(y.readings)
	return res, nil
}

func medians(runs map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(runs))
	for name, vs := range runs {
		out[name] = median(vs)
	}
	return out
}

// runTraced sets up once, measures an untraced and then a traced window of
// two fifths of the run's seconds each on the same daemons, and runs the
// ladder. The difference between the two windows is what tracing costs.
func runTraced(wl workload, seed uint64, seconds float64, traceOut string) (*result, error) {
	b, err := setUp(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	y, err := newYardstick()
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	defer y.close()
	paceBefore := y.measure()
	plain, err := b.window(0.4*seconds, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	recW, recR := newRecorder(t0, 1<<18), newRecorder(t0, 1<<18)
	w, err := b.window(0.4*seconds, nil, recW, recR)
	if err != nil {
		return nil, err
	}
	values, ladderOpNs, err := runLadder(wl, b.in, recW)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	spans := append(recW.spans, recR.spans...)
	if err := writeTrace(traceOut, wl.name, seed, spans); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}

	// The closed-loop side shows what tracing costs: the reader on the mixed
	// workload (its writer is paced), the writer elsewhere.
	rate := func(w *windowResult) float64 {
		if wl.mixedReader {
			return w.reads.rate(queryKeys)
		}
		return w.writes.rate(float64(wl.opSize()))
	}
	values["trace.overhead_frac"] = 1 - rate(w)/rate(plain)
	values["trace.spans"] = float64(len(spans))
	// What the idle-daemon ladder does not account for of the op the loaded
	// window's client saw: queueing behind the reader, the gossip ticks, GC.
	values["ladder.unaccounted_frac"] = 1 - ladderOpNs/percentileOf(w.opLat, 50)

	updates := float64(w.updates)
	d := func(after, before int64) float64 { return float64(after - before) }
	values["server.batches"] = d(w.after.batches, w.before.batches)
	values["server.stream_frames"] = d(w.after.streamFrames, w.before.streamFrames)
	hits, misses := d(w.after.epochHits, w.before.epochHits), d(w.after.epochMisses, w.before.epochMisses)
	values["server.epoch_hits"], values["server.epoch_misses"] = hits, misses
	values["server.epoch_miss_frac"] = ratio(misses, hits+misses)
	frames, shipped := d(w.after.gossipFramesAcked, w.before.gossipFramesAcked), d(w.after.gossipBytesShipped, w.before.gossipBytesShipped)
	values["gossip.frames_acked"], values["gossip.bytes_shipped"] = frames, shipped
	values["gossip.bytes_per_frame"] = ratio(shipped, frames)
	values["gossip.deltas_applied"] = d(w.after.deltasApplied, w.before.deltasApplied)
	values["gossip.deltas_duplicate"] = d(w.after.deltasDuplicate, w.before.deltasDuplicate)
	values["gossip.deltas_rejected"] = d(w.after.deltasRejected, w.before.deltasRejected)
	values["gossip.converge_ms"] = float64(w.converge) / 1e6
	values["runtime.allocs_per_update"] = float64(w.use.mallocs) / updates
	values["runtime.alloc_bytes_per_update"] = float64(w.use.allocBytes) / updates
	values["runtime.gc_cycles"] = float64(w.use.gcCycles)
	values["runtime.gc_pause_ms"] = float64(w.use.gcPauseNs) / 1e6
	values["runtime.cpu_us_per_update"] = float64(w.use.cpuNs) / 1e3 / updates
	values["gen.late_p99_ms"] = 0
	if len(w.late) > 0 {
		values["gen.late_p99_ms"] = percentileOf(w.late, 99) / 1e6
	}
	values["yardstick.ns_per_key"] = (paceBefore + y.measure()) / 2
	if y.err != nil {
		return nil, fmt.Errorf("yardstick: %w", y.err)
	}
	values["client.write_p999_ms"] = percentileOf(w.writes.all(), 99.9) / 1e6
	values["client.query_p999_ms"] = percentileOf(w.reads.all(), 99.9) / 1e6
	return newResult(perLayerMetrics, values, plain.attempted+w.attempted, plain.failed+w.failed)
}

// ratio is a/b, 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runRepeated runs the workload n times, each in a child process on its own
// seed the way the driver does, and prints each metric's median, quartiles
// and spread (the distance between the quartiles as a share of the median):
// how the bounds in BENCHMARK.json are calibrated and re-checked.
func runRepeated(wl workload, seed uint64, seconds float64, trace, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs to have quartiles")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runs := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: last line is not a result: %w", i, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d: correct=%v failed=%d of %d", i, res.Correct, res.Failed, res.Attempted)
		}
		for name, mv := range res.Metrics {
			runs[name] = append(runs[name], mv.Value)
			units[name] = mv.Unit
		}
	}
	defs := endToEndMetrics
	if trace == 1 {
		defs = perLayerMetrics
	}
	fmt.Printf("# %s: %d runs, seeds %d..%d, %gs each\n", wl.name, n, seed, seed+uint64(n)-1, seconds)
	fmt.Printf("%-38s %16s %16s %16s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, d := range defs {
		q1, q2, q3 := quartiles(runs[d.name])
		fmt.Printf("%-38s %16.4f %16.4f %16.4f %8.4f %s\n", d.name, q1, q2, q3, ratio(q3-q1, q2), units[d.name])
	}
	return nil
}
