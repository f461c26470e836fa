package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// passesGate is the fold's gate written out: every delta an integer in int32
// range, none -0.
func passesGate(deltas []float64) bool {
	for _, d := range deltas {
		if d != math.Trunc(d) || d < math.MinInt32 || d > math.MaxInt32 || math.Float64bits(d) == 1<<63 {
			return false
		}
	}
	return true
}

// checkFold folds a copy of the column with r and checks the result against
// the column itself: the same records, bit for bit, when the gate refuses
// it; otherwise one record per distinct key in first-occurrence order, and a
// Count-Min fed the folded column holds the same counter words and the same
// mass bits as one fed the column record by record.
func checkFold(t *testing.T, r *repeatSum, items []uint64, deltas []float64) {
	t.Helper()
	fi, fd := slices.Clone(items), slices.Clone(deltas)
	m := r.fold(fi, fd)
	if !passesGate(deltas) || len(items) < 2 {
		if m != len(items) || !slices.Equal(fi, items) || !sameFloatBits(fd, deltas) {
			t.Fatalf("a column the gate refuses came back changed: %d of %d records", m, len(items))
		}
		return
	}
	var keys []uint64
	seen := make(map[uint64]bool)
	for _, k := range items {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	if !slices.Equal(fi[:m], keys) {
		t.Fatalf("folded keys %v, want the distinct keys in first-occurrence order %v", fi[:m], keys)
	}
	want := sketch.NewCountMin(xrand.New(9), 16, 3)
	want.UpdateBatch(items, deltas)
	got := sketch.NewCountMin(xrand.New(9), 16, 3)
	got.UpdateBatch(fi[:m], fd[:m])
	wb, _ := want.MarshalBinary()
	gb, _ := got.MarshalBinary()
	if !bytes.Equal(gb, wb) {
		t.Fatalf("folded column's counters differ from the per-record counters")
	}
	if math.Float64bits(got.TotalMass()) != math.Float64bits(want.TotalMass()) {
		t.Fatalf("folded mass %v, per-record mass %v", got.TotalMass(), want.TotalMass())
	}
}

func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestRepeatSumMatchesPerRecord is the fold's exactness property over random
// integer columns: few keys and many, small deltas and deltas at the int32
// limits, so some counters cancel to 0 and some leave the int32 range (the
// Count-Min widens) in one path or both.
func TestRepeatSumMatchesPerRecord(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	edges := []float64{0, 1, -1, math.MaxInt32, math.MinInt32, 1 << 30, -(1 << 30)}
	var r repeatSum
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(700)
		universe := 1 + rng.IntN(n)
		items, deltas := make([]uint64, n), make([]float64, n)
		for i := range items {
			items[i] = uint64(rng.IntN(universe)) * (1 + uint64(trial%3)<<40)
			if rng.IntN(4) == 0 {
				deltas[i] = edges[rng.IntN(len(edges))]
			} else {
				deltas[i] = float64(rng.IntN(9) - 4)
			}
		}
		checkFold(t, &r, items, deltas)
	}
}

// TestRepeatSumGateLeavesColumnUntouched feeds the fold columns with one
// delta outside the gate each.
func TestRepeatSumGateLeavesColumnUntouched(t *testing.T) {
	for _, bad := range []float64{0.5, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1 << 31, math.MinInt32 - 1, 1e300} {
		items := []uint64{3, 3, 4, 3, 4, 3}
		deltas := []float64{1, 2, 3, bad, 5, 6}
		var r repeatSum
		checkFold(t, &r, items, deltas)
	}
}

// TestRepeatSumZeroAlloc checks that a fold at a batch size the owner has
// seen allocates nothing.
func TestRepeatSumZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	items, deltas := zipfColumn(4096)
	fi, fd := slices.Clone(items), slices.Clone(deltas)
	var r repeatSum
	r.fold(fi, fd)
	allocs := testing.AllocsPerRun(100, func() {
		copy(fi, items)
		copy(fd, deltas)
		if r.fold(fi, fd) == len(fi) {
			t.Fatal("the Zipf column was not folded")
		}
	})
	if allocs != 0 {
		t.Fatalf("a steady-state fold allocated %v times", allocs)
	}
}

// FuzzRepeatSum runs checkFold on columns built from fuzz bytes: each 5-byte
// record is a key out of 16 (so keys repeat) with a high-bit variant, and an
// int32 delta, or, when its last byte is 0xff, a delta the gate refuses.
func FuzzRepeatSum(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0, 0, 0, 2, 2, 0, 0, 0, 3})
	f.Add([]byte{1, 0x7f, 0xff, 0xff, 0xfe, 1, 0x7f, 0xff, 0xff, 0xfe, 1, 0x80, 0, 0, 0})
	f.Add([]byte{5, 0, 0, 0, 1, 5, 0, 0, 1, 0xff, 5, 0, 0, 0, 1})
	refused := []float64{0.5, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 1 << 31}
	var r repeatSum
	f.Fuzz(func(t *testing.T, data []byte) {
		var items []uint64
		var deltas []float64
		for ; len(data) >= 5; data = data[5:] {
			k := uint64(data[0] & 15)
			if data[0]&16 != 0 {
				k |= 1 << 63
			}
			d := float64(int32(binary.BigEndian.Uint32(data[1:5])))
			if data[4] == 0xff {
				d = refused[int(data[3])%len(refused)]
			}
			items, deltas = append(items, k), append(deltas, d)
		}
		checkFold(t, &r, items, deltas)
	})
}

// TestRepeatSumExactAcrossTheGate feeds a daemon through every ingest path —
// binary and JSON POSTs, SKS1 frames over raw TCP and over POST /v1/stream —
// with batches on both sides of the gate: heavy repeats, integer deltas that
// cancel to 0, a JSON -0, a fractional (IEEE-side) batch mid-stream, and a
// batch that pushes a counter past 2^31 so the counters widen. Its dense
// /v1/query and total mass must equal, bit for bit, a single-threaded
// tracker fed every record in order, and each POST's Accepted must count the
// records sent. The fraction is a binary one (0.5): the daemon is bit-exact
// while every counter is a sum a float64 holds exactly, whatever the order,
// and the engine's worker replicas already sum in another order than the
// reference.
func TestRepeatSumExactAcrossTheGate(t *testing.T) {
	cfg := Config{Width: 64, Depth: 4, K: 8, Seed: 21, Producers: 2,
		Engine: engine.Config{Workers: 2, BatchSize: 300}}
	_, client, addr := streamDaemon(t, cfg)
	ctx := context.Background()
	ref := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	const universe = 256
	rng := rand.New(rand.NewPCG(3, 4))
	repeats := func(n int) ([]uint64, []float64) {
		items, deltas := make([]uint64, n), make([]float64, n)
		for i := range items {
			items[i], deltas[i] = uint64(rng.IntN(12)), float64(rng.IntN(9)-3)
		}
		return items, deltas
	}
	feedRef := func(items []uint64, deltas []float64) {
		for i, k := range items {
			ref.Update(k, deltas[i])
		}
	}
	post := func(ct string, body []byte, n int) {
		t.Helper()
		resp, err := client.do(ctx, "POST", "/v1/update", ct, body)
		if err != nil {
			t.Fatal(err)
		}
		var ur UpdateResponse
		if err := json.Unmarshal(resp, &ur); err != nil || ur.Accepted != n {
			t.Fatalf("accepted %d (err %v), want the %d records sent", ur.Accepted, err, n)
		}
	}
	postBinary := func(items []uint64, deltas []float64) {
		t.Helper()
		post(contentTypeBatch, AppendBatchColumns(nil, items, deltas), len(items))
		feedRef(items, deltas)
	}
	// postJSON writes the body by hand, so a -0 delta goes out as "-0".
	postJSON := func(items []uint64, deltas []float64) {
		t.Helper()
		var b bytes.Buffer
		b.WriteString(`{"updates":[`)
		for i, k := range items {
			if i > 0 {
				b.WriteByte(',')
			}
			d := fmt.Sprint(deltas[i])
			if math.Float64bits(deltas[i]) == 1<<63 {
				d = "-0"
			}
			fmt.Fprintf(&b, `{"item":%d,"delta":%s}`, k, d)
		}
		b.WriteString(`]}`)
		post(contentTypeJSON, b.Bytes(), len(items))
		feedRef(items, deltas)
	}

	postBinary(repeats(600))
	postJSON(repeats(300))
	postBinary([]uint64{1, 2, 1, 2, 1}, []float64{7, -3, -7, 3, 0}) // every key cancels to 0
	postJSON([]uint64{1, 2, 1, 2}, []float64{5, -1, -5, 1})
	postJSON([]uint64{4, 4, 5, 4}, []float64{math.Copysign(0, -1), 2, 1, 3})

	for _, target := range []string{addr, client.base} {
		su, err := DialStream(target, StreamConfig{Window: 4, BatchSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		type column struct {
			items  []uint64
			deltas []float64
		}
		var frames []column
		add := func(items []uint64, deltas []float64) { frames = append(frames, column{items, deltas}) }
		add(repeats(800))
		add([]uint64{6, 7, 6, 7, 6}, []float64{0.5, 1, 1.5, -1, 2}) // IEEE side
		add(repeats(500))
		big := float64(math.MaxInt32)
		add([]uint64{11, 11, 12, 11}, []float64{big, big, 1, big}) // past 2^31: widens
		add(repeats(900))
		for _, f := range frames {
			if err := su.UpdateColumns(f.items, f.deltas); err != nil {
				t.Fatal(err)
			}
			feedRef(f.items, f.deltas)
		}
		if err := su.Close(); err != nil {
			t.Fatal(err)
		}
	}
	postBinary(repeats(700))

	keys := make([]uint64, universe)
	for i := range keys {
		keys[i] = uint64(i)
	}
	got, err := client.QueryBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if want := ref.Estimate(k); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("key %d: served %v, reference %v", k, got[i], want)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(st.TotalMass) != math.Float64bits(ref.TotalMass()) {
		t.Fatalf("total mass %v, reference %v", st.TotalMass, ref.TotalMass())
	}
	if st.WidenedSketches == 0 {
		t.Fatal("the 2^31 batch widened no counter array")
	}
	if st.UpdatesApplied >= st.Updates {
		t.Fatalf("updates_applied %d of updates %d: nothing was summed", st.UpdatesApplied, st.Updates)
	}
}

// TestUpdatesAppliedCountsSummedRecords reads /v1/stats after one batch of
// 100 records over 10 keys: updates counts the records received, and
// updates_applied the 10 the engine applied.
func TestUpdatesAppliedCountsSummedRecords(t *testing.T) {
	_, client := testDaemon(t, Config{Width: 256, Depth: 4, K: 8, Seed: 1, Producers: 1})
	items, deltas := make([]uint64, 100), make([]float64, 100)
	for i := range items {
		items[i], deltas[i] = uint64(i%10), 1
	}
	if err := client.UpdateColumns(context.Background(), items, deltas); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 100 || st.UpdatesApplied != 10 || st.Batches != 1 {
		t.Fatalf("updates %d, updates_applied %d, batches %d; want 100, 10, 1", st.Updates, st.UpdatesApplied, st.Batches)
	}
}

// zipfColumn is n Zipf(1.1) keys below 2^20 with deltas 1..4: the
// benchmark's column shape.
func zipfColumn(n int) ([]uint64, []float64) {
	s := stream.Zipf(xrand.New(1), 1<<20, n, 1.1)
	items, deltas := make([]uint64, n), make([]float64, n)
	for i, u := range s.Updates {
		items[i], deltas[i] = u.Item, float64(1+i%4)
	}
	return items, deltas
}

// BenchmarkRepeatSumBatch times the fold of one 4096-record batch, copy into
// the owner's columns included: on the benchmark's Zipf(1.1) column and on a
// column without repeats, where the fold is pure cost.
func BenchmarkRepeatSumBatch(b *testing.B) {
	zi, zd := zipfColumn(4096)
	di, dd := make([]uint64, 4096), slices.Clone(zd)
	for i := range di {
		di[i] = uint64(i) * 2654435761
	}
	for _, c := range []struct {
		name   string
		items  []uint64
		deltas []float64
	}{{"zipf", zi, zd}, {"distinct", di, dd}} {
		b.Run(c.name, func(b *testing.B) {
			fi, fd := slices.Clone(c.items), slices.Clone(c.deltas)
			var r repeatSum
			m := r.fold(fi, fd) // sizes the index
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(fi, c.items)
				copy(fd, c.deltas)
				m = r.fold(fi, fd)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4096, "ns/update")
			b.ReportMetric(float64(m)/4096, "kept")
		})
	}
}
