package bench

import (
	"fmt"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// RunE14DeltaGossip measures the bytes a gossiping sketch mesh must move to
// stay converged, comparing delta shipping — each node sends the
// (mostly zero, compressed KindDelta envelope of the)
// difference between its current local sketch and the last state each peer
// acknowledged — against full-snapshot shipping at the same convergence
// cadence. Three nodes ingest disjoint interleaved slices of one Zipf
// stream in rounds; after every round every node ships to both peers, so
// under either strategy every node tracks the global sketch round for
// round. The exactness column reports, per strategy, the maximum estimate
// deviation of any node's converged sketch from the single-threaded
// reference after the final round — linearity says it must always read 0.
// The shipped deltas really cross the codec: every frame is AppendDeltaSince
// (the one-pass encode of own - shipped, byte for byte the envelope of the
// marshalled difference) -> DecodeDelta -> Unmarshal -> Merge, exactly the
// path sketchd's /v1/delta payload takes.
func RunE14DeltaGossip(cfg Config) []Table {
	universe := uint64(1 << 20)
	length := 2_000_000
	rounds := 20
	if cfg.Quick {
		universe = 1 << 16
		length = 100_000
		rounds = 8
	}
	const width, depth = 4096, 4
	const nodes = 3

	r := xrand.New(cfg.Seed)
	s := stream.Zipf(r, universe, length, 1.1)
	proto := sketch.NewCountMin(xrand.New(cfg.Seed+1), width, depth)

	// Single-threaded reference over the whole stream: the exactness oracle.
	single := proto.Clone()
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
	}

	// Node i owns every nodes-th update; each round ingests 1/rounds of it.
	owned := make([][]stream.Update, nodes)
	for i, u := range s.Updates {
		owned[i%nodes] = append(owned[i%nodes], u)
	}

	maxErr := func(merged []*sketch.CountMin) float64 {
		var worst float64
		for _, m := range merged {
			for item := uint64(0); item < universe; item += 101 {
				if d := absFloat(single.Estimate(item) - m.Estimate(item)); d > worst {
					worst = d
				}
			}
		}
		return worst
	}

	// runMesh plays the rounds under one strategy and returns the frame
	// count, total bytes on the wire, and the final exactness figure.
	runMesh := func(deltas bool) (frames int, bytes int64, worst float64) {
		own := make([]*sketch.CountMin, nodes)     // locally ingested only
		merged := make([]*sketch.CountMin, nodes)  // own + everything received
		shipped := make([]*sketch.CountMin, nodes) // local state as of the last ship
		for i := range own {
			own[i] = proto.Clone()
			merged[i] = proto.Clone()
			shipped[i] = proto.Clone()
		}
		for round := 0; round < rounds; round++ {
			// Ingest this round's slice into each node (own and merged see
			// identical updates — merged is own plus received mass).
			for i := 0; i < nodes; i++ {
				lo := round * len(owned[i]) / rounds
				hi := (round + 1) * len(owned[i]) / rounds
				for _, u := range owned[i][lo:hi] {
					own[i].Update(u.Item, float64(u.Delta))
					merged[i].Update(u.Item, float64(u.Delta))
				}
			}
			// Ship: every node to both peers. Delta strategy sends the
			// compressed difference since the last ship; the baseline sends
			// the full dense snapshot (the receiver subtracts the previous
			// copy it holds, so both strategies converge identically).
			for i := 0; i < nodes; i++ {
				var wire []byte
				dense, err := own[i].MarshalBinary()
				if err != nil {
					panic(fmt.Sprintf("bench: E14 marshal: %v", err))
				}
				if deltas {
					if wire, err = own[i].AppendDeltaSince(nil, shipped[i]); err != nil {
						panic(fmt.Sprintf("bench: E14 encode delta: %v", err))
					}
				} else {
					wire = dense
				}
				for j := 0; j < nodes; j++ {
					if j == i {
						continue
					}
					frames++
					bytes += int64(len(wire))
					var inc sketch.CountMin
					if deltas {
						inner, err := sketch.DecodeDelta(wire)
						if err != nil {
							panic(fmt.Sprintf("bench: E14 decode envelope: %v", err))
						}
						if err := inc.UnmarshalBinary(inner); err != nil {
							panic(fmt.Sprintf("bench: E14 unmarshal delta: %v", err))
						}
					} else {
						if err := inc.UnmarshalBinary(wire); err != nil {
							panic(fmt.Sprintf("bench: E14 unmarshal snapshot: %v", err))
						}
						// Receiver-side delta: drop the copy received last
						// round, keep the new one — same convergence, full
						// bytes on the wire every round.
						if err := inc.Sub(shipped[i]); err != nil {
							panic(fmt.Sprintf("bench: E14 receiver sub: %v", err))
						}
					}
					if err := merged[j].Merge(&inc); err != nil {
						panic(fmt.Sprintf("bench: E14 merge: %v", err))
					}
				}
				shipped[i] = own[i].Copy()
			}
		}
		return frames, bytes, maxErr(merged)
	}

	table := Table{
		Title: fmt.Sprintf("E14: gossip delta shipping vs full snapshots, %d Zipf updates, %d nodes x %d rounds, Count-Min %dx%d",
			length, nodes, rounds, width, depth),
		Columns: []string{"strategy", "frames", "bytes shipped", "bytes/frame", "max |err| vs single"},
	}
	for _, strat := range []struct {
		name   string
		deltas bool
	}{
		{"full-snapshot", false},
		{"delta-gossip", true},
	} {
		frames, bytes, worst := runMesh(strat.deltas)
		table.AddRow(
			strat.name,
			fmtInt(frames),
			fmtInt(int(bytes)),
			fmtInt(int(bytes)/frames),
			fmtFloat(worst),
		)
	}
	return []Table{table}
}
