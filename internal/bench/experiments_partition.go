package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// RunE16PartitionMode compares the engine's two sharding regimes head to
// head on the three axes the choice trades between: resident counter memory
// (replica mode holds one full sketch per worker, partition mode exactly one
// across all workers), snapshot latency (a W-way merge of full replicas vs a
// slice copy and concatenation), and ingest throughput (local scatter-add on
// a private replica vs hash-once-per-row routing to column owners). The
// exactness column reports the largest estimate deviation from the
// single-threaded reference sketch and must always read exactly 0: both
// regimes add the same deltas to the same logical counters, so the modes are
// interchangeable bit for bit and the regime choice is purely an operational
// one (see docs/CLUSTER.md for the decision table).
func RunE16PartitionMode(cfg Config) []Table {
	universe := uint64(1 << 20)
	length := 2_000_000
	if cfg.Quick {
		universe = 1 << 16
		length = 100_000
	}
	const width, depth = 4096, 4
	const batchSize = 4096
	const snapshots = 5

	r := xrand.New(cfg.Seed)
	s := stream.Zipf(r, universe, length, 1.1)
	items := make([]uint64, len(s.Updates))
	deltas := make([]float64, len(s.Updates))
	for i, u := range s.Updates {
		items[i] = u.Item
		deltas[i] = float64(u.Delta)
	}

	proto := sketch.NewCountMin(xrand.New(cfg.Seed+1), width, depth)
	single := proto.Clone()
	single.UpdateBatch(items, deltas)
	maxErr := func(merged *sketch.CountMin) float64 {
		var worst float64
		for item := uint64(0); item < universe; item += 101 {
			if d := absFloat(single.Estimate(item) - merged.Estimate(item)); d > worst {
				worst = d
			}
		}
		return worst
	}

	table := Table{
		Title: fmt.Sprintf("E16: replica vs partition sharding, %d Zipf updates, Count-Min %dx%d, batch=%d, GOMAXPROCS=%d",
			length, width, depth, batchSize, runtime.GOMAXPROCS(0)),
		Columns: []string{"config", "counter words", "items/sec (M)", "snapshot ms", "max |err| vs single"},
	}
	rate := func(d float64) string { return fmt.Sprintf("%.2f", float64(length)/d/1e6) }

	for _, workers := range []int{2, 4, 8} {
		for _, mode := range []struct {
			name      string
			partition bool
		}{{"replica", false}, {"partition", true}} {
			eng := engine.NewCountMin(engine.Config{Workers: workers, BatchSize: batchSize, Partition: mode.partition}, proto)
			ingestSecs := timeIt(func() {
				for start := 0; start < len(items); start += batchSize {
					end := min(start+batchSize, len(items))
					eng.UpdateColumns(items[start:end], deltas[start:end])
				}
				eng.Flush()
			}).Seconds()
			var snapTotal time.Duration
			for i := 0; i < snapshots; i++ {
				snapTotal += timeIt(func() {
					if _, err := eng.Snapshot(); err != nil {
						panic(fmt.Sprintf("bench: E16 snapshot: %v", err))
					}
				})
			}
			// Read after the snapshots' barriers: a replica exists once its
			// worker has applied a batch, and by now every worker has.
			words := eng.CounterWords()
			merged, err := eng.Close()
			if err != nil {
				panic(fmt.Sprintf("bench: E16 engine close: %v", err))
			}
			table.AddRow(
				fmt.Sprintf("%s %dw", mode.name, workers),
				fmtInt(words),
				rate(ingestSecs),
				fmtDuration(snapTotal/snapshots),
				fmtFloat(maxErr(merged)),
			)
		}
	}
	return []Table{table}
}
