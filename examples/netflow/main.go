// Netflow: per-flow traffic accounting with sketches (the survey's §1
// motivation from network measurement, [EV02, FCAB98]).
//
// A router cannot afford one counter per flow. This example synthesizes a
// heavy-tailed packet trace (a few elephant flows, many mice), feeds it to a
// Count-Min-backed heavy-hitter tracker and to a SpaceSaving summary in a
// single pass, and compares what they report against exact per-flow counts.
//
// Run with: go run ./examples/netflow
package main

import (
	"fmt"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func main() {
	r := xrand.New(7)

	// Synthetic trace: 50k flows with Pareto(1.3) sizes, mean 12 packets.
	trace := stream.Flows(r, 1<<32, 50_000, 12, 1.3)
	fmt.Printf("synthetic trace: %d packets from up to %d flows\n\n", trace.Len(), 50_000)

	// One pass, three structures.
	tracker := sketch.NewHeavyHitterTracker(r, 8192, 4, 32) // Count-Min + heap
	ss := sketch.NewSpaceSaving(1024)
	exact := stream.NewExactCounter()
	for _, pkt := range trace.Updates {
		tracker.Update(pkt.Item, float64(pkt.Delta))
		ss.Update(pkt.Item, pkt.Delta)
		exact.Update(pkt.Item, pkt.Delta)
	}

	const phi = 0.002 // report flows with >= 0.2% of the packets
	truth := exact.HeavyHitters(phi)
	fmt.Printf("flows with at least %.1f%% of the traffic (exact): %d\n", phi*100, len(truth))
	fmt.Printf("exact counting needed %d flow entries; the sketch uses %d counters (%d KiB), SpaceSaving %d entries\n\n",
		exact.DistinctItems(), tracker.SpaceCounters(), tracker.CounterBytes()/1024, 1024)

	fmt.Printf("%-14s %10s %12s %12s %12s\n", "flow", "exact", "count-min", "spacesaving", "cm overest%")
	for i, ic := range truth {
		if i >= 10 {
			break
		}
		cmEst := tracker.Estimate(ic.Item)
		ssEst := ss.Estimate(ic.Item)
		fmt.Printf("flow-%-9d %10d %12.0f %12d %11.2f%%\n",
			ic.Item, ic.Count, cmEst, ssEst, 100*(cmEst-float64(ic.Count))/float64(ic.Count))
	}

	// Recall of the single-pass tracker versus the exact answer.
	reported := map[uint64]bool{}
	for _, ic := range tracker.HeavyHitters(phi) {
		reported[ic.Item] = true
	}
	hit := 0
	for _, ic := range truth {
		if reported[ic.Item] {
			hit++
		}
	}
	fmt.Printf("\ntracker recall at phi=%.3f: %d/%d heavy flows found in a single pass\n", phi, hit, len(truth))
}
