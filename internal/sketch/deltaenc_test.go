package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/xrand"
)

// encodeDeltaOracle is the envelope encoder as it stood before tokenWriter:
// one byte-at-a-time scan over the whole inner encoding. It defines the token
// stream; the streaming writer must reproduce it byte for byte.
func encodeDeltaOracle(inner []byte) []byte {
	w := writer{buf: make([]byte, 0, 6+4+binary.MaxVarintLen64+len(inner)/4)}
	w.header(kindDelta)
	w.u32(uint32(len(inner)))
	for i := 0; i < len(inner); {
		zeros := i
		for zeros < len(inner) && inner[zeros] == 0 {
			zeros++
		}
		lit := zeros
		// A literal run ends at the next stretch of >= 4 zeros (shorter zero
		// gaps cost less as literals than as a fresh token pair).
		for lit < len(inner) {
			if inner[lit] == 0 {
				end := lit
				for end < len(inner) && inner[end] == 0 {
					end++
				}
				if end-lit >= 4 || end == len(inner) {
					break
				}
				lit = end
				continue
			}
			lit++
		}
		w.buf = binary.AppendUvarint(w.buf, uint64(zeros-i))
		w.buf = binary.AppendUvarint(w.buf, uint64(lit-zeros))
		w.buf = append(w.buf, inner[zeros:lit]...)
		i = lit
	}
	return w.buf
}

// trackerDeltaOracle is the replicator's encode chain as it stood before
// AppendDeltaSince: copy, subtract, marshal densely, compress.
func trackerDeltaOracle(t *testing.T, local, base *HeavyHitterTracker) []byte {
	t.Helper()
	delta := local.Copy()
	if err := delta.Sub(base); err != nil {
		t.Fatal(err)
	}
	inner, err := delta.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return encodeDeltaOracle(inner)
}

// encodeDeltaAt is EncodeDelta with the word feeder starting `lead` bytes into
// the input, the bytes ahead of it going in one at a time.
func encodeDeltaAt(inner []byte, lead int) []byte {
	lead = min(lead, len(inner))
	e := tokenWriter{out: appendDeltaHeader(nil, len(inner))}
	for _, b := range inner[:lead] {
		e.byte(b)
	}
	e.bytes(inner[lead:])
	return e.finish()
}

// deltaShapes are the update streams the differential tests draw a tracker's
// post-baseline window from.
var deltaShapes = []struct {
	name  string
	delta func(r *xrand.Rand) float64
}{
	{"integer", func(r *xrand.Rand) float64 { return float64(1 + r.Intn(9)) }},
	{"fractional", func(r *xrand.Rand) float64 { return r.Float64()*3 - 1 }},
	{"negative", func(r *xrand.Rand) float64 { return -float64(1 + r.Intn(1000)) }},
	{"scaled", func(r *xrand.Rand) float64 { return float64(1+r.Intn(1<<20)) * (1 << 40) }},
	{"all-zero", nil}, // nothing arrives after the baseline
}

var allFamilies = []hashing.Family{
	hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation,
}

// feed pushes n updates of the shape into tr over a universe of `keys` keys.
func feed(tr *HeavyHitterTracker, r *xrand.Rand, n, keys int, delta func(*xrand.Rand) float64) {
	items, deltas := make([]uint64, n), make([]float64, n)
	for i := range items {
		items[i], deltas[i] = uint64(r.Intn(keys))*0x9e3779b97f4a7c15, delta(r)
	}
	tr.UpdateBatch(items, deltas)
}

// TestAppendDeltaSinceMatchesSeedChain: the one-pass encode, tracker's and
// Count-Min's, is byte for byte the copy → subtract → marshal → compress
// chain it replaces, for every hash family, narrow odd widths and the
// daemon's own, sparse and dense windows of every delta shape, against an
// empty baseline (a replace frame's payload) and a mid-stream one, with and
// without candidates — and appends behind whatever dst already holds.
func TestAppendDeltaSinceMatchesSeedChain(t *testing.T) {
	for _, family := range allFamilies {
		for _, width := range []int{53, 4096, 65536} {
			if width == 65536 && family != allFamilies[0] {
				continue // the family only picks which counters move: one pass at the daemon's width
			}
			for _, shape := range deltaShapes {
				for _, midStream := range []bool{false, true} {
					for _, k := range []int{1, 16} {
						name := fmt.Sprintf("%v/w%d/%s/mid=%v/k%d", family, width, shape.name, midStream, k)
						r := xrand.New(uint64(width) + uint64(family)*7 + uint64(k))
						cm := NewCountMin(r, width, 3, WithCountMinHashFamily(family))
						local := newHeavyHitterTracker(cm, k)
						base := local.Clone()
						if midStream {
							feed(local, r, width, 4*width, deltaShapes[0].delta)
							base = local.Copy()
						}
						if shape.delta != nil {
							// Half the cases touch a few counters, half most of them.
							n := width / 8
							if k == 16 {
								n = 2 * width
							}
							feed(local, r, n, 4*width, shape.delta)
						}
						if k == 1 && !midStream {
							local.cands = NewCandidateSet(k) // no candidates at all
						}
						want := trackerDeltaOracle(t, local, base)
						prefix := []byte("frame header")
						got, err := local.AppendDeltaSince(append([]byte(nil), prefix...), base)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
							t.Fatalf("%s: one-pass envelope (%d bytes) differs from the seed chain's (%d bytes)", name, len(got)-len(prefix), len(want))
						}
						// The bare Count-Min's encode is the same pass without
						// the tracker's wrapping.
						diff := local.cm.Copy()
						if err := diff.Sub(base.cm); err != nil {
							t.Fatal(err)
						}
						dense, _ := diff.MarshalBinary()
						if got, err := local.cm.AppendDeltaSince(nil, base.cm); err != nil || !bytes.Equal(got, encodeDeltaOracle(dense)) {
							t.Fatalf("%s: Count-Min one-pass envelope differs from the seed chain's (err %v)", name, err)
						}
						if !midStream {
							// The counter-less prototype is the same empty base, and
							// against either the envelope is that of local itself.
							whole, _ := local.MarshalBinary()
							got, err := local.AppendDeltaSince(nil, local.Prototype())
							if err != nil || !bytes.Equal(got, want) || !bytes.Equal(got, EncodeDelta(whole)) {
								t.Fatalf("%s: envelope against the prototype differs from the one against an empty clone (err %v)", name, err)
							}
							if got, err := local.cm.AppendDeltaSince(nil, local.cm.Prototype()); err != nil || !bytes.Equal(got, encodeDeltaOracle(dense)) {
								t.Fatalf("%s: Count-Min envelope against the prototype differs (err %v)", name, err)
							}
						}
						// And it decodes to the difference tracker.
						inner, err := DecodeDelta(want)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						var back HeavyHitterTracker
						if err := back.UnmarshalBinary(inner); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if back.TotalMass() != local.TotalMass()-base.TotalMass() {
							t.Fatalf("%s: decoded mass %v, want %v", name, back.TotalMass(), local.TotalMass()-base.TotalMass())
						}
					}
				}
			}
		}
	}

	// Counters no decoder would accept still encode alike against both empty
	// bases: v - 0 is v bit for bit, the sign of zero and NaN included.
	odd := NewHeavyHitterTracker(xrand.New(5), 53, 3, 4)
	copy(odd.cm.counts, []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1})
	odd.cm.totalMass = math.Copysign(0, -1)
	whole, _ := odd.MarshalBinary()
	got, err := odd.AppendDeltaSince(nil, odd.Prototype())
	if err != nil || !bytes.Equal(got, trackerDeltaOracle(t, odd, odd.Clone())) || !bytes.Equal(got, EncodeDelta(whole)) {
		t.Fatalf("odd counters: envelope against the prototype differs from the one against an empty clone (err %v)", err)
	}
}

// TestPrototypeStandsForTheEmptySketch: a prototype holds no counters, clones
// to a full-size empty sketch, encodes as one, and refuses to be counted into.
func TestPrototypeStandsForTheEmptySketch(t *testing.T) {
	full := NewHeavyHitterTracker(xrand.New(3), 128, 4, 8)
	feed(full, xrand.New(4), 500, 1000, deltaShapes[0].delta)
	proto := full.Prototype()
	if n := len(proto.Backing().CounterData()); n != 0 || proto.TotalMass() != 0 || len(proto.TopK()) != 0 {
		t.Fatalf("prototype holds %d counters, mass %v, %d candidates; want none", n, proto.TotalMass(), len(proto.TopK()))
	}
	if err := full.CompatibleWith(proto); err != nil {
		t.Fatal(err)
	}
	clone := proto.Clone()
	if got := clone.Backing().CounterData(); len(got) != 128*4 || clone.SpaceCounters() != 128*4 {
		t.Fatalf("clone of the prototype has %d counters, want %d", len(got), 128*4)
	}
	for i, v := range clone.Backing().CounterData() {
		if v != 0 {
			t.Fatalf("clone of the prototype holds %v in counter %d", v, i)
		}
	}
	want, _ := full.Clone().MarshalBinary()
	for name, empty := range map[string]*HeavyHitterTracker{"prototype": proto, "its clone": clone} {
		if got, err := empty.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s does not encode as the empty tracker (err %v)", name, err)
		}
	}
	// Merging it in adds nothing; a clone of it counts like any other.
	before, _ := full.MarshalBinary()
	if err := full.Merge(proto); err != nil {
		t.Fatal(err)
	}
	if after, _ := full.MarshalBinary(); !bytes.Equal(after, before) {
		t.Fatal("merging the prototype in changed the tracker")
	}
	clone.Update(7, 1)
	if clone.Estimate(7) != 1 {
		t.Fatalf("clone of the prototype estimates %v after one update, want 1", clone.Estimate(7))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("updating the prototype did not panic")
		}
	}()
	proto.Update(7, 1)
}

// TestAppendDeltaSinceRejectsWhatSubRejects: mismatched dimensions and
// conservative sketches are refused with dst handed back as it came.
func TestAppendDeltaSinceRejectsWhatSubRejects(t *testing.T) {
	a := NewHeavyHitterTracker(xrand.New(1), 64, 2, 4)
	dst := []byte("kept")
	for name, b := range map[string]*HeavyHitterTracker{
		"width":        NewHeavyHitterTracker(xrand.New(1), 32, 2, 4),
		"depth":        NewHeavyHitterTracker(xrand.New(1), 64, 3, 4),
		"conservative": newHeavyHitterTracker(NewCountMin(xrand.New(1), 64, 2, WithConservativeUpdate()), 4),
	} {
		out, err := a.AppendDeltaSince(dst, b)
		if err == nil || string(out) != "kept" {
			t.Errorf("%s: got %q, %v; want an error and dst unchanged", name, out, err)
		}
		if subErr := a.Copy().Sub(b); subErr == nil || subErr.Error() != err.Error() {
			t.Errorf("%s: AppendDeltaSince says %v, Sub says %v", name, err, subErr)
		}
	}
}

// TestEncodeDeltaMatchesOracle: the streaming writer emits the oracle's token
// stream for every family's dense and sparse encodings and for hand-made
// inputs around the 4-zero literal rule and the 1-byte/2-byte literal-length
// boundary, wherever in the input the word feeder starts.
func TestEncodeDeltaMatchesOracle(t *testing.T) {
	inputs := map[string][]byte{
		"empty":             nil,
		"one zero":          {0},
		"one byte":          {7},
		"zeros only":        make([]byte, 29),
		"gap of 3":          {1, 0, 0, 0, 2},
		"gap of 4":          {1, 0, 0, 0, 0, 2},
		"gap across words":  {1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9},
		"short tail gap":    {1, 2, 3, 0, 0},
		"tail gap of 4":     {5, 0, 0, 0, 0},
		"interior zero":     {0x41, 0, 0, 8, 0, 0, 0, 0, 0x41, 0, 0, 8, 0, 0, 0, 0},
		"literal of 127":    bytes.Repeat([]byte{3}, 127),
		"literal of 128":    bytes.Repeat([]byte{3}, 128),
		"literal of 20000":  append(make([]byte, 9), bytes.Repeat([]byte{0xfe, 0, 1}, 20000/3)...),
		"long then sparse":  append(bytes.Repeat([]byte{1}, 300), append(make([]byte, 70), 4)...),
		"small float words": wordsOf(1, 2, 3, 1000, 0, 0, 65536, -1, 0.5, 131073, 1<<40+1),
	}
	r := xrand.New(77)
	randomSparse := make([]byte, 4099)
	for i := 0; i < 300; i++ {
		randomSparse[r.Intn(len(randomSparse))] = byte(r.Intn(256))
	}
	inputs["random sparse"] = randomSparse

	cm := NewCountMin(xrand.New(5), 257, 3)
	cs := NewCountSketch(xrand.New(5), 129, 3)
	dy := NewDyadic(xrand.New(5), 10, 33, 2)
	for i := 0; i < 40; i++ {
		item, d := uint64(r.Intn(1<<10)), float64(1+r.Intn(5))
		cm.Update(item, d)
		cs.Update(item, d+0.25)
		dy.Update(item, d)
	}
	for name, s := range map[string]interface{ MarshalBinary() ([]byte, error) }{
		"CountMin": cm, "CountSketch": cs, "Dyadic": dy,
	} {
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = enc
	}

	for name, inner := range inputs {
		want := encodeDeltaOracle(inner)
		if got := EncodeDelta(inner); !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeDelta differs from the oracle (%d vs %d bytes)", name, len(got), len(want))
		}
		for lead := 0; lead < 8; lead++ {
			if got := encodeDeltaAt(inner, lead); !bytes.Equal(got, want) {
				t.Errorf("%s: word feeder starting at byte %d differs from the oracle (%d vs %d bytes)", name, lead, len(got), len(want))
			}
		}
		back, err := DecodeDelta(want)
		if err != nil || !bytes.Equal(back, inner) {
			t.Errorf("%s: envelope does not decode back to its input: %v", name, err)
		}
	}
}

// wordsOf lays float64s out as the encodings do: 8 big-endian bytes each.
func wordsOf(vs ...float64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// TestDecodeDeltaIntoReusesAndClears: a buffer with room is decoded into in
// place, whatever it held before, and one without is left alone.
func TestDecodeDeltaIntoReusesAndClears(t *testing.T) {
	inner := []byte{0, 0, 0, 0, 0, 0, 9, 8, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0}
	env := EncodeDelta(inner)
	dirty := bytes.Repeat([]byte{0xAA}, 64)
	out, err := DecodeDeltaInto(dirty[:3], env, 1<<10)
	if err != nil || !bytes.Equal(out, inner) {
		t.Fatalf("decode into a dirty buffer: %v, %v", out, err)
	}
	if &out[0] != &dirty[0] {
		t.Fatal("a buffer with room was not reused")
	}
	small := make([]byte, 4)
	out, err = DecodeDeltaInto(small, env, 1<<10)
	if err != nil || !bytes.Equal(out, inner) || &out[0] == &small[0] {
		t.Fatalf("decode past a short buffer: %v, %v", out, err)
	}
	if out, err := DecodeDeltaInto(dirty, env[:len(env)-1], 1<<10); err == nil || out != nil {
		t.Fatalf("truncated envelope: got %v, %v", out, err)
	}
}

// TestAppendDeltaSinceAllocs pins the encode's allocation count into a warm
// dst: the sorted candidate keys and nothing that grows with the width.
func TestAppendDeltaSinceAllocs(t *testing.T) {
	var perWidth []float64
	for _, width := range []int{256, 16384} {
		local := NewHeavyHitterTracker(xrand.New(9), width, 4, 32)
		base := local.Clone()
		feed(local, xrand.New(10), 4*width, 8*width, deltaShapes[0].delta)
		dst, err := local.AppendDeltaSince(nil, base)
		if err != nil {
			t.Fatal(err)
		}
		perWidth = append(perWidth, testing.AllocsPerRun(20, func() {
			dst, _ = local.AppendDeltaSince(dst[:0], base)
		}))
	}
	if perWidth[0] != perWidth[1] || perWidth[0] > 2 {
		t.Fatalf("allocations per encode: %v at width 256, %v at width 16384; want the same small constant", perWidth[0], perWidth[1])
	}
}

// BenchmarkTrackerDeltaBatch measures the replicator's encode step on the
// daemon's shape: a 65536x4 tracker, k=64, the envelope of the 2^19 Zipf(1.1)
// updates that arrived since the baseline, appended into a warm buffer — and,
// as since-prototype, the whole tracker against the counter-less empty base,
// a replace frame's and a first window's payload.
func BenchmarkTrackerDeltaBatch(b *testing.B) {
	const window = 1 << 19
	z := xrand.NewZipf(xrand.New(1), 1<<20, 1.1)
	items := make([]uint64, 2*window)
	deltas := make([]float64, len(items))
	for i := range items {
		items[i] = uint64(z.Next()) * 0x9e3779b97f4a7c15
		deltas[i] = 1
	}
	local := NewHeavyHitterTracker(xrand.New(1), 65536, 4, 64)
	local.UpdateBatch(items[:window], deltas[:window])
	base := local.Copy()
	local.UpdateBatch(items[window:], deltas[window:])
	for _, bc := range []struct {
		name string
		base *HeavyHitterTracker
	}{{"since-copy", base}, {"since-prototype", local.Prototype()}} {
		b.Run(bc.name, func(b *testing.B) {
			dst, err := local.AppendDeltaSince(nil, bc.base)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = local.AppendDeltaSince(dst[:0], bc.base)
			}
		})
	}
}
