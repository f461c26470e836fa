package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/xrand"
)

// The storage rule (see CountMin): int32 counters while every input stays
// exact in 32 bits, float64 from the first that does not, and the same
// estimates, mass and bytes either way. The oracle for each case is the same
// case run on a sketch widened from the start by +0.5 and then -0.5 on one
// key, which changes no counter bit and no later sum.

// widenedFromStart returns a fresh sketch in float64 storage holding nothing:
// the two halves cancel exactly, leaving +0 counters and mass.
func widenedFromStart(depth int) *CountMin {
	cm := NewCountMin(xrand.New(31), 64, depth)
	cm.Update(11, 0.5)
	cm.Update(11, -0.5)
	return cm
}

// storageCases are the boundary inputs of the storage rule. widens says
// whether the case moves a fresh int32 sketch to float64.
var storageCases = []struct {
	name   string
	widens bool
	apply  func(cm *CountMin)
}{
	{"delta 2^31-1", false, func(cm *CountMin) { cm.Update(3, math.MaxInt32) }},
	{"delta 2^31", true, func(cm *CountMin) { cm.Update(3, 1<<31) }},
	{"delta -2^31", false, func(cm *CountMin) { cm.Update(3, math.MinInt32) }},
	{"delta -2^31-1", true, func(cm *CountMin) { cm.Update(3, math.MinInt32-1) }},
	{"delta 0.5", true, func(cm *CountMin) { cm.Update(3, 4); cm.Update(3, 0.5) }},
	{"delta -0", false, func(cm *CountMin) { cm.Update(3, math.Copysign(0, -1)) }},
	{"delta NaN", true, func(cm *CountMin) { cm.Update(3, 2); cm.Update(3, math.NaN()) }},
	{"delta +Inf", true, func(cm *CountMin) { cm.Update(3, math.Inf(1)) }},
	{"delta -Inf", true, func(cm *CountMin) { cm.Update(3, math.Inf(-1)) }},
	{"counter up to 2^31-1", false, func(cm *CountMin) { cm.Update(3, math.MaxInt32-5); cm.Update(3, 5) }},
	{"counter crosses 2^31", true, func(cm *CountMin) { cm.Update(3, math.MaxInt32); cm.Update(3, 1) }},
	{"counter down to -2^31", false, func(cm *CountMin) { cm.Update(3, math.MinInt32+5); cm.Update(3, -5) }},
	{"counter crosses -2^31", true, func(cm *CountMin) { cm.Update(3, math.MinInt32); cm.Update(3, -1) }},
	{"counter crosses 2^31 mid-chunk", true, func(cm *CountMin) {
		// The crossing item sits inside a 300-item batch: the chunk goes on
		// in float64 from exactly that item.
		items, deltas := make([]uint64, 300), make([]float64, 300)
		for i := range items {
			items[i], deltas[i] = uint64(i%7), 1
		}
		deltas[100] = math.MaxInt32 - 20
		cm.UpdateBatch(items, deltas)
	}},
	{"Merge an int32 operand", false, func(cm *CountMin) {
		cm.Update(3, 7)
		other := cm.Clone()
		other.Update(3, 9)
		other.Update(5, -2)
		mustNil(cm.Merge(other))
	}},
	{"Merge a float64 operand", true, func(cm *CountMin) {
		cm.Update(3, 7)
		other := cm.Clone()
		other.Update(3, 9.25)
		mustNil(cm.Merge(other))
	}},
	{"Merge past 2^31", true, func(cm *CountMin) {
		cm.Update(3, math.MaxInt32)
		other := cm.Clone()
		other.Update(3, 1)
		mustNil(cm.Merge(other))
	}},
	{"Merge a Prototype", false, func(cm *CountMin) {
		cm.Update(3, 7)
		mustNil(cm.Merge(cm.Prototype()))
	}},
	{"Sub down to negative values", false, func(cm *CountMin) {
		cm.Update(3, 2)
		other := cm.Clone()
		other.Update(3, 9)
		other.Update(8, 4)
		mustNil(cm.Sub(other))
	}},
	{"Sub a float64 operand", true, func(cm *CountMin) {
		other := cm.Clone()
		other.Update(3, 0.75)
		mustNil(cm.Sub(other))
	}},
	{"Sub past -2^31", true, func(cm *CountMin) {
		cm.Update(3, math.MinInt32+1)
		other := cm.Clone()
		other.Update(3, 2)
		mustNil(cm.Sub(other))
	}},
	{"Scale by 2", false, func(cm *CountMin) { cm.Update(3, 5); cm.Update(4, -6); cm.Scale(2) }},
	{"Scale by 2 past 2^31", true, func(cm *CountMin) { cm.Update(3, 1<<30); cm.Scale(2) }},
	{"Scale by 0.5", true, func(cm *CountMin) { cm.Update(3, 5); cm.Scale(0.5) }},
	{"Scale by -1", true, func(cm *CountMin) { cm.Update(3, 5); cm.Scale(-1) }},
	{"Scale by 0", true, func(cm *CountMin) { cm.Update(3, -5); cm.Scale(0) }},
}

func mustNil(err error) {
	if err != nil {
		panic(err)
	}
}

// TestStorageBoundaries runs every boundary case on an int32 sketch and on
// one widened from the start, at depth 4 (the unrolled kernel) and 3 (the
// generic one): the int32 sketch must widen exactly when the case says so,
// and the two must agree on every estimate, the total mass and every encoded
// byte.
func TestStorageBoundaries(t *testing.T) {
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for _, depth := range []int{3, 4} {
		for _, tc := range storageCases {
			name := fmt.Sprintf("%s/depth%d", tc.name, depth)
			narrow, wide := NewCountMin(xrand.New(31), 64, depth), widenedFromStart(depth)
			if narrow.Widened() || !wide.Widened() {
				t.Fatalf("%s: fresh sketch widened %v, oracle widened %v", name, narrow.Widened(), wide.Widened())
			}
			tc.apply(narrow)
			tc.apply(wide)
			if narrow.Widened() != tc.widens {
				t.Errorf("%s: widened = %v, want %v", name, narrow.Widened(), tc.widens)
			}
			requireSameSketch(t, name, narrow, wide, keys)
		}
	}
}

// requireSameSketch asserts two sketches agree bit for bit on the estimates
// of keys (scalar and batched), the total mass and the encoding.
func requireSameSketch(t *testing.T, name string, got, want *CountMin, keys []uint64) {
	t.Helper()
	gotEst, wantEst := make([]float64, len(keys)), make([]float64, len(keys))
	got.EstimateBatch(keys, gotEst)
	want.EstimateBatch(keys, wantEst)
	for i, k := range keys {
		if g, w := got.Estimate(k), want.Estimate(k); math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(gotEst[i]) != math.Float64bits(w) {
			t.Fatalf("%s: estimate of %d is %v (batched %v), want %v", name, k, g, gotEst[i], w)
		}
		if math.Float64bits(wantEst[i]) != math.Float64bits(want.Estimate(k)) {
			t.Fatalf("%s: the oracle's batched estimate of %d disagrees with its scalar one", name, k)
		}
	}
	if g, w := got.TotalMass(), want.TotalMass(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: total mass %v, want %v", name, g, w)
	}
	gb, _ := got.MarshalBinary()
	wb, _ := want.MarshalBinary()
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: encodings differ", name)
	}
	gd, err := got.AppendDeltaSince(nil, got.Prototype())
	if err != nil {
		t.Fatal(err)
	}
	wd, _ := want.AppendDeltaSince(nil, want.Prototype())
	if !bytes.Equal(gd, wd) || !bytes.Equal(gd, EncodeDelta(wb)) {
		t.Fatalf("%s: delta envelopes differ", name)
	}
}

// TestStorageDeltaAcrossStorages cuts the delta between every pair of
// storages — int32 or float64 sketch, against an int32, float64 or counter-less
// base — and checks it against the envelope of the Sub of float64 copies.
func TestStorageDeltaAcrossStorages(t *testing.T) {
	r := xrand.New(32)
	build := func(wide bool, base *CountMin) *CountMin {
		cm := base.Copy()
		for range 400 {
			cm.Update(r.Uint64n(500), float64(int(r.Uint64n(21))-10))
		}
		if wide {
			cm.Update(7, 0.5)
		}
		return cm
	}
	proto := NewCountMin(xrand.New(33), 128, 4)
	for _, baseKind := range []string{"int32", "float64", "prototype"} {
		for _, wide := range []bool{false, true} {
			var base *CountMin
			switch baseKind {
			case "prototype":
				base = proto.Prototype()
			default:
				base = build(baseKind == "float64", proto.Clone())
			}
			cm := build(wide, base)
			want := cm.Copy()
			want.widen()
			mustNil(want.Sub(base))
			inner, _ := want.MarshalBinary()
			got, err := cm.AppendDeltaSince(nil, base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, EncodeDelta(inner)) {
				t.Errorf("base %s, sketch widened %v: delta envelope differs from the float64 difference's", baseKind, wide)
			}
		}
	}
}

// countMinEncoding is a Count-Min encoding of 8 counters (width 4, depth 2)
// holding the given counter words and mass.
func countMinEncoding(words [8]uint64, mass uint64) []byte {
	cm := NewCountMin(xrand.New(34), 4, 2)
	buf := cm.appendEncodingHeader(nil, math.Float64frombits(mass))
	for _, w := range words {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// FuzzCountMinStorageFixedPoint builds a well-formed Count-Min encoding from
// fuzzed counter words, so every input reaches the counter decode: a decode
// that succeeds must re-encode to exactly its input, and pick int32 storage
// exactly when every word is an integer in int32 range and not -0.
func FuzzCountMinStorageFixedPoint(f *testing.F) {
	words := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(words(0, 1, -1, math.MaxInt32, math.MinInt32, 7, 0, 3))
	f.Add(words(math.Copysign(0, -1), 1, 2, 3, 4, 5, 6, 7))
	f.Add(words(0.5, -2.25, 1e-300, 5e-324, 0, 0, 0, 0))
	f.Add(words(1<<31, math.MinInt32-1, 1<<53, 1e300, -1e300, math.MaxFloat64, 0, 0))
	f.Add(words(math.NaN(), math.Inf(1), 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ws [8]uint64
		for i := range ws {
			var w [8]byte
			copy(w[:], data[min(len(data), 8*i):])
			ws[i] = binary.BigEndian.Uint64(w[:])
		}
		enc := countMinEncoding(ws, 0)
		var cm CountMin
		if err := cm.UnmarshalBinary(enc); err != nil {
			for _, w := range ws {
				if w&frame.Float64ExpMask == frame.Float64ExpMask {
					return // a non-finite counter: refused, as it must be
				}
			}
			t.Fatalf("finite counters refused: %v", err)
		}
		narrow := true
		for _, w := range ws {
			_, ok := narrowWord(w)
			narrow = narrow && ok
		}
		if cm.Widened() == narrow {
			t.Fatalf("words %x decoded widened = %v", ws, cm.Widened())
		}
		got, err := cm.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("words %x: decode -> encode is not a fixed point", ws)
		}
	})
}

// BenchmarkTrackerUpdateStorage times the tracker's counter pass once per
// storage — int32 (a fresh tracker) and float64 (the same tracker widened up
// front) — on BenchmarkTrackerZipfBatch's stream: Zipf(1.1) keys over 2^20,
// depth 4, k=64, 4096-update frames cycling through 2^20 updates, with the
// deltas 1..4 the benchmark's workloads send. The hot read-modify-writes touch
// 4 or 8 bytes a counter, which is what the two widths compare.
func BenchmarkTrackerUpdateStorage(b *testing.B) {
	const frame, streamLen = 4096, 1 << 20
	z := xrand.NewZipf(xrand.New(1), 1<<20, 1.1)
	r := xrand.New(2)
	items := make([]uint64, streamLen)
	deltas := make([]float64, streamLen)
	for i := range items {
		items[i] = uint64(z.Next()) * 0x9e3779b97f4a7c15 // heavy keys are not the small ids
		deltas[i] = float64(1 + r.Uint64n(4))
	}
	for _, width := range []int{65536, 4096} {
		for _, storage := range []string{"int32", "float64"} {
			b.Run(fmt.Sprintf("w%d/%s", width, storage), func(b *testing.B) {
				tr := NewHeavyHitterTracker(xrand.New(1), width, 4, 64)
				if storage == "float64" {
					tr.cm.widen()
				}
				tr.UpdateBatch(items, deltas) // fill the store so steady state is measured
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					at := i * frame % streamLen
					tr.UpdateBatch(items[at:at+frame], deltas[at:at+frame])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/update")
				if tr.Widened() != (storage == "float64") {
					b.Fatalf("storage %s: widened = %v", storage, tr.Widened())
				}
			})
		}
	}
}
