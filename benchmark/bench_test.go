package main

import (
	"encoding/json"
	"math"
	"math/big"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 100}, {10, 10}, {11, 20}, {100, 100}, {0.1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

// A few slow sub-windows must not move the reported rate or latency, and a
// slowdown of all of them must.
func TestSubWindowMedians(t *testing.T) {
	fill := func(slowEvery int) samples {
		var s samples
		// 100 ops a second at 1 ms each; in a slow second, 10 ops at 50 ms.
		for sec := 0; sec < subWindows; sec++ {
			n, lat := 100, time.Millisecond
			if sec%slowEvery == 0 {
				n, lat = 10, 50*time.Millisecond
			}
			var w subWindow
			for i := 1; i <= n; i++ {
				w.add(time.Duration(i)*time.Second/time.Duration(n), lat)
			}
			s = append(s, w)
		}
		return s
	}
	s := fill(4)
	if got := s.rate(256); math.Abs(got-25600) > 1 {
		t.Errorf("rate = %v updates/s, want 25600", got)
	}
	if got := s.latencyMs(50); got != 1 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := s.latencyMs(99); got != 1 {
		t.Errorf("p99 = %v ms, want 1", got)
	}
	// An op that straddles the sub-window's end is counted with all its time.
	s[1].add(1250*time.Millisecond, time.Millisecond)
	if got := samples(s[1:2]).rate(1); math.Abs(got-101/1.25) > 1e-9 {
		t.Errorf("rate of a sub-window with a straddling op = %v ops/s, want %v", got, 101/1.25)
	}
	if got := len(s.all()); got != 7*100+3*10+1 {
		t.Errorf("all() returned %d latencies", got)
	}
	s = fill(1)
	if got := s.rate(256); math.Abs(got-2560) > 1 {
		t.Errorf("rate with every second slow = %v updates/s, want 2560", got)
	}
	if got := s.latencyMs(50); got != 50 {
		t.Errorf("p50 with every second slow = %v ms, want 50", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// A box running the yardstick at twice its nominal time per key is half as
// fast: its timings halve on the way to the nominal box.
func TestYardstick(t *testing.T) {
	if got := toNominal([]float64{yardstickNominalNs, 3 * yardstickNominalNs}); got != 0.5 {
		t.Errorf("toNominal(nominal, 3 nominal) = %v, want 0.5", got)
	}
	var none *yardstick
	if got := none.measure(); got != yardstickNominalNs {
		t.Errorf("a nil yardstick reads %v, want nominal", got)
	}
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	r := y.measure()
	y.close()
	if y.err != nil || !(r > 0) || len(y.readings) != 1 {
		t.Errorf("reading %v, err %v, %d readings kept", r, y.err, len(y.readings))
	}
	// Once the connection is gone a reading fails instead of hanging.
	y.measure()
	if y.err == nil {
		t.Error("a reading on a closed yardstick did not fail")
	}
}

// quartiles must agree with Python's statistics.quantiles(vs, n=4), which is
// what the driver computes the spread with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1 2 4 8 16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	const n = 1 << 15
	a, b, c := generateN(7, n), generateN(7, n), generateN(8, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a.items, c.items) || reflect.DeepEqual(a.dense, c.dense) {
		t.Fatal("different seeds generated the same inputs")
	}
	// Frozen: the first draws of seed 7 must never change, or every committed
	// number silently describes a different workload.
	rng := splitmix64(7)
	if got := rng.next(); got != 0x63cbe1e459320dd7 {
		t.Errorf("splitmix64(7) first draw = %#x", got)
	}
	seen := make(map[uint64]int)
	for i, x := range a.items {
		if x >= universe {
			t.Fatalf("key %d outside the universe", x)
		}
		if d := a.deltas[i]; d < 1 || d > 4 || d != math.Trunc(d) {
			t.Fatalf("delta %v is not an integer in 1..4", d)
		}
		seen[x]++
	}
	// Zipf(1.1) over 2^20 keys: the heaviest key carries about an eighth of the mass.
	top := 0
	for _, n := range seen {
		top = max(top, n)
	}
	if share := float64(top) / n; share < 0.10 || share > 0.15 {
		t.Errorf("heaviest key has %.3f of the updates, want about 0.125", share)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Parent: 0, Name: "client.stream_op", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "client.stream_frame", Start: 0, End: 30},
		{Op: 1, ID: 3, Parent: 1, Name: "client.sync", Start: 30, End: 90},
		// Another op reusing the same ids must not be mixed in.
		{Op: 2, ID: 1, Parent: 0, Name: "client.stream_op", Start: 100, End: 150},
		{Op: 2, ID: 2, Parent: 1, Name: "client.sync", Start: 110, End: 150},
		// A ladder chain: each rung's child is the rung below, run separately.
		{Op: 3, ID: 6, Parent: 0, Name: "sketch.tracker_update", Start: 0, End: 160},
		{Op: 3, ID: 7, Parent: 6, Name: "sketch.cm_update", Start: 200, End: 245},
		{Op: 3, ID: 8, Parent: 7, Name: "hashing.hash", Start: 300, End: 327},
	}
	want := []int64{10, 30, 60, 10, 40, 115, 18, 27}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var r *recorder
	r.add(1, 1, 0, "ignored", time.Now(), time.Now()) // a nil recorder records nothing
}

func TestBaselineHashIsModMersenne(t *testing.T) {
	cm := newBaselineCM(4096, 4, 3)
	p := new(big.Int).SetUint64(mersenne61)
	rng := splitmix64(11)
	for i := 0; i < 1000; i++ {
		x := rng.next()
		row := i % 4
		v := new(big.Int).Mul(new(big.Int).SetUint64(cm.coeffs[row][0]), new(big.Int).SetUint64(x))
		v.Add(v, new(big.Int).SetUint64(cm.coeffs[row][1]))
		v.Mod(v, p)
		if want := v.Uint64() % 4096; cm.bucket(row, x) != want {
			t.Fatalf("bucket(%d, %#x) = %d, want %d", row, x, cm.bucket(row, x), want)
		}
	}
	cm.add(5, 3)
	cm.add(5, 4)
	if got := cm.estimate(5); got != 7 {
		t.Errorf("estimate = %d, want 7", got)
	}
}

// BENCHMARK.json and the program must declare the same workloads and metrics.
func TestSpecMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d is %q in the program and %q in BENCHMARK.json (or their whys differ)", i, wl.name, spec.Workloads[i].Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d in the program", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in the program, %s [%s] in BENCHMARK.json", kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
