package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the way BENCHMARK.json declares it. The two lists
// below are the program's side of that contract: an untraced run prints every
// end-to-end metric and a traced run every per-layer metric, on every
// workload, and a test holds the lists against the file.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"updates_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"keys_per_s", "1/s"},
	{"wire_bytes_per_update", "B"},
	{"live_heap_mb", "MiB"},
}

var perLayerMetrics = []metricDef{
	{"hashing.hash_ns_per_key", "ns"},
	{"baseline.cm_add_ns_per_update", "ns"},
	{"baseline.cm_estimate_ns_per_key", "ns"},
	{"sketch.cm_update_ns_per_update", "ns"},
	{"sketch.tracker_update_ns_per_update", "ns"},
	{"sketch.update_self_ns", "ns"},
	{"sketch.update_allocs_per_op", "count"},
	{"sketch.estimate_ns_per_key", "ns"},
	{"sketch.estimate_allocs_per_op", "count"},
	{"sketch.copy_ms", "ms"},
	{"sketch.sub_ms", "ms"},
	{"sketch.merge_ms", "ms"},
	{"encoding.marshal_ms", "ms"},
	{"encoding.unmarshal_ms", "ms"},
	{"encoding.snapshot_bytes", "B"},
	{"encoding.delta_encode_ms", "ms"},
	{"encoding.delta_decode_ms", "ms"},
	{"encoding.delta_bytes", "B"},
	{"engine.ingest_ns_per_update", "ns"},
	{"engine.ingest_self_ns", "ns"},
	{"engine.ingest_allocs_per_op", "count"},
	{"engine.snapshot_ms", "ms"},
	{"engine.epoch_rebuild_us", "us"},
	{"engine.epoch_hit_ns", "ns"},
	{"engine.estimate_ns_per_key", "ns"},
	{"engine.counter_mb", "MiB"},
	{"wire.skb1_encode_ns_per_update", "ns"},
	{"wire.skb1_decode_ns_per_update", "ns"},
	{"wire.skb1_bytes_per_update", "B"},
	{"wire.sks1_encode_ns_per_update", "ns"},
	{"wire.sks1_decode_ns_per_update", "ns"},
	{"wire.skq1_decode_ns_per_key", "ns"},
	{"wire.ske1_encode_ns_per_key", "ns"},
	{"wire.skd1_encode_ms", "ms"},
	{"wire.skd1_decode_ms", "ms"},
	{"wire.decode_allocs_per_op", "count"},
	{"server.update_handler_us", "us"},
	{"server.update_self_us", "us"},
	{"server.update_allocs_per_req", "count"},
	{"server.query_handler_us", "us"},
	{"server.query_self_us", "us"},
	{"server.query_allocs_per_req", "count"},
	{"server.delta_handler_ms", "ms"},
	{"server.snapshot_handler_ms", "ms"},
	{"server.loopback_post_us", "us"},
	{"server.loopback_query_us", "us"},
	{"server.stream_frame_us", "us"},
	{"server.batches", "count"},
	{"server.stream_frames", "count"},
	{"server.epoch_hits", "count"},
	{"server.epoch_misses", "count"},
	{"server.epoch_miss_frac", "ratio"},
	{"gossip.frames_acked", "count"},
	{"gossip.bytes_shipped", "B"},
	{"gossip.bytes_per_frame", "B"},
	{"gossip.deltas_applied", "count"},
	{"gossip.deltas_duplicate", "count"},
	{"gossip.deltas_rejected", "count"},
	{"gossip.tick_cost_ms", "ms"},
	{"gossip.converge_ms", "ms"},
	{"runtime.allocs_per_update", "count"},
	{"runtime.alloc_bytes_per_update", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_us_per_update", "us"},
	{"gen.late_p99_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "ratio"},
	{"ladder.unaccounted_frac", "ratio"},
	{"yardstick.ns_per_key", "ns"},
	{"client.write_p999_ms", "ms"},
	{"client.query_p999_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// An untraced run's metrics are on the nominal box (yardstick.go); these
	// are the same metrics as the clock read them, and the yardstick's median
	// reading over the run. They are printed beside the result, not in it.
	measured map[string]float64
	pace     float64
}

// newResult pairs the measured values with the declared metrics. A declared
// metric without a finite value, or a value without a declaration, is a bug
// in the harness and fails the run.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (*result, error) {
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return res, nil
}

// print writes every metric by name with its unit, then the result as one
// JSON line.
func (r *result) print(workload string, seed uint64) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d attempted=%d failed=%d\n", workload, seed, r.Attempted, r.Failed)
	if r.measured != nil {
		fmt.Printf("# yardstick %.3f ns/key, nominal %.3f: the box ran at %.3f of nominal; second column as measured\n", r.pace, yardstickNominalNs, yardstickNominalNs/r.pace)
	}
	for _, name := range names {
		fmt.Printf("%-38s %16.4f", name, r.Metrics[name].Value)
		if r.measured != nil {
			fmt.Printf(" %16.4f", r.measured[name])
		}
		fmt.Printf(" %s\n", r.Metrics[name].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
