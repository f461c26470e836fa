package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hashing"
	"repro/internal/xrand"
)

// encodeDeltaOracle is the envelope's greedy rule written as the plainest
// left-to-right scan over the whole inner encoding, with the whole input in
// view. It defines the token stream; the streaming writer must reproduce it
// byte for byte.
func encodeDeltaOracle(inner []byte) []byte {
	out := appendDeltaHeader(nil, len(inner))
	// word reports whether a word token starts at i, and its token.
	word := func(i int) (uint64, bool) {
		if inner[i] == 0 || len(inner)-i < 8 {
			return 0, false
		}
		x := math.Float64frombits(binary.BigEndian.Uint64(inner[i:]))
		if x != math.Trunc(x) || x == 0 || math.Abs(x) > 1<<53 {
			return 0, false
		}
		v := int64(x)
		return uint64(v<<1^v>>63)<<2 | 2, true
	}
	for i := 0; i < len(inner); {
		if inner[i] == 0 {
			j := i
			for j < len(inner) && inner[j] == 0 {
				j++
			}
			out = binary.AppendUvarint(out, uint64(j-i)<<2)
			i = j
			continue
		}
		if t, ok := word(i); ok {
			out = binary.AppendUvarint(out, t)
			i += 8
			continue
		}
		// A literal: nonzero bytes that start no word, and the gaps of fewer
		// than 4 zeros between them.
		j := i + 1
		for j < len(inner) {
			if inner[j] != 0 {
				if _, ok := word(j); ok {
					break
				}
				j++
				continue
			}
			end := j
			for end < len(inner) && inner[end] == 0 {
				end++
			}
			if end-j >= 4 || end == len(inner) {
				break
			}
			if _, ok := word(end); ok {
				break
			}
			j = end
		}
		out = binary.AppendUvarint(out, uint64(j-i)<<2|1)
		out = append(out, inner[i:j]...)
		i = j
	}
	return out
}

// kindRetiredDelta is the kind byte of the envelope before integer tokens,
// which decoders now refuse.
const kindRetiredDelta = 7

// encodeRetiredDeltaOracle is the retired envelope: (zero run, literal length,
// literal) uvarint pairs, a literal ending at 4 zeros or at the end of the
// input. It is here to measure the new envelope against and to forge a frame
// from an older release.
func encodeRetiredDeltaOracle(inner []byte) []byte {
	w := writer{buf: make([]byte, 0, 6+4+binary.MaxVarintLen64+len(inner)/4)}
	w.header(kindRetiredDelta)
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

// encodeDeltaAt is EncodeDelta with the input split `lead` bytes in: the
// bytes ahead of the split go in one call each, and the rest as 8-byte words,
// zero runs for the zero words among them, and a byte tail — so every token
// boundary falls at every offset from the writer's calls.
func encodeDeltaAt(inner []byte, lead int) []byte {
	lead = min(lead, len(inner))
	e := tokenWriter{out: appendDeltaHeader(nil, len(inner))}
	for i := range inner[:lead] {
		e.bytes(inner[i : i+1])
	}
	rest := inner[lead:]
	for ; len(rest) >= 8; rest = rest[8:] {
		if w := binary.BigEndian.Uint64(rest); w == 0 {
			e.zeroRun(8)
		} else {
			e.word(0, w)
		}
	}
	e.bytes(rest)
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
// inputs around the 4-zero literal rule, the 1-byte/2-byte tag boundaries,
// the integer range and integer words that start inside literals, after gaps,
// off the 8-byte grid and too close to the end — wherever in the input the
// word feeder starts.
func TestEncodeDeltaMatchesOracle(t *testing.T) {
	two := wordsOf(2) // 0x40 and seven zeros
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
		"literal of 31":     bytes.Repeat([]byte{3}, 31),
		"literal of 32":     bytes.Repeat([]byte{3}, 32),
		"literal of 4096":   bytes.Repeat([]byte{3}, 4096),
		"literal of 20000":  append(make([]byte, 9), bytes.Repeat([]byte{0xfe, 0, 1}, 20000/3)...),
		"long then sparse":  append(bytes.Repeat([]byte{1}, 300), append(make([]byte, 70), 4)...),
		"small float words": wordsOf(1, 2, 3, 1000, 0, 0, 65536, -1, 0.5, 131073, 1<<40+1),
		"integer range": wordsOf(15, 16, -16, -17, 2047, 2048, -2048, -2049, 1<<53, -(1 << 53), 1<<53+2, -(1<<53 + 2),
			1e300, -1e300, math.Copysign(0, -1), 5e-324, math.Inf(1), math.NaN(), 0.75),
		"word off the grid":    append(append([]byte{7}, two...), 9),
		"word after gap of 1":  append([]byte{5, 0}, two...),
		"word after gap of 3":  append([]byte{5, 0, 0, 0}, two...),
		"word after gap of 4":  append([]byte{5, 0, 0, 0, 0}, two...),
		"word inside literal":  append(append([]byte{1, 2}, wordsOf(-7)...), 3, 4),
		"word ending input":    append([]byte{1}, two...),
		"word one byte short":  append([]byte{1}, two[:7]...),
		"words back to back":   append(append(append([]byte{}, two...), two...), two...),
		"fractional then zero": append(wordsOf(0.3), make([]byte, 8)...),
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

// TestDeltaEnvelopeSize: against the retired envelope, a window of every
// delta shape costs at most a tenth more at the daemon's shape and at a narrow
// odd one, and a window of integer counts costs at most 0.4 of it.
func TestDeltaEnvelopeSize(t *testing.T) {
	for _, shape := range []struct{ width, depth int }{{65536, 4}, {1023, 3}} {
		for _, ds := range deltaShapes {
			r := xrand.New(uint64(shape.width) + 11)
			local := NewHeavyHitterTracker(r, shape.width, shape.depth, 16)
			feed(local, r, shape.width, 4*shape.width, deltaShapes[0].delta)
			base := local.Copy()
			if ds.delta != nil {
				feed(local, r, 2*shape.width, 4*shape.width, ds.delta)
			}
			got, err := local.AppendDeltaSince(nil, base)
			if err != nil {
				t.Fatal(err)
			}
			delta := local.Copy()
			if err := delta.Sub(base); err != nil {
				t.Fatal(err)
			}
			inner, _ := delta.MarshalBinary()
			retired := encodeRetiredDeltaOracle(inner)
			limit := 1.1
			if ds.name == "integer" {
				limit = 0.4
			}
			ratio := float64(len(got)) / float64(len(retired))
			t.Logf("%dx%d %s: %d bytes, retired envelope %d (%.3f)", shape.width, shape.depth, ds.name, len(got), len(retired), ratio)
			if ratio > limit {
				t.Errorf("%dx%d %s: envelope is %.3f of the retired one's size, want at most %v", shape.width, shape.depth, ds.name, ratio, limit)
			}
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
	inner := append([]byte{0, 0, 0, 0, 0, 0, 9, 8, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0}, wordsOf(-5)...)
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

// deltaGoldenWindow is the window testdata/delta.golden freezes: a seeded
// 257x3 tracker past its baseline by integer, negative and fractional updates,
// with three counters that were +0 at the baseline now −0 — so its counter
// differences are integers, fractions, zeros and −0.
func deltaGoldenWindow() (local, base *HeavyHitterTracker) {
	r := xrand.New(26)
	local = NewHeavyHitterTracker(r, 257, 3, 8)
	feed(local, r, 300, 1000, deltaShapes[0].delta)
	base = local.Copy()
	feed(local, r, 120, 1000, deltaShapes[0].delta)
	feed(local, r, 30, 1000, deltaShapes[2].delta)
	feed(local, r, 30, 1000, deltaShapes[1].delta)
	negZeros := 0
	for i, v := range base.cm.counts {
		if v == 0 && local.cm.counts[i] == 0 && negZeros < 3 {
			local.cm.counts[i] = math.Copysign(0, -1)
			negZeros++
		}
	}
	return local, base
}

// TestDeltaEnvelopeGolden freezes the envelope format: the window's envelope
// is the committed bytes, which are the oracle's, spell every kind of token,
// and expand to the marshalled difference.
func TestDeltaEnvelopeGolden(t *testing.T) {
	local, base := deltaGoldenWindow()
	want, err := os.ReadFile(filepath.Join("testdata", "delta.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := local.AppendDeltaSince(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope (%d bytes) differs from testdata/delta.golden (%d bytes)", len(got), len(want))
	}
	if !bytes.Equal(want, trackerDeltaOracle(t, local, base)) {
		t.Fatal("testdata/delta.golden is not the oracle's envelope of its window")
	}
	delta := local.Copy()
	if err := delta.Sub(base); err != nil {
		t.Fatal(err)
	}
	dense, _ := delta.MarshalBinary()
	if inner, err := DecodeDelta(want); err != nil || !bytes.Equal(inner, dense) {
		t.Fatalf("testdata/delta.golden does not expand to the marshalled difference (err %v)", err)
	}
	var tags [3]int
	for tokens := want[10:]; len(tokens) > 0; {
		tok, n := binary.Uvarint(tokens)
		tokens = tokens[n:]
		tags[tok&3]++
		if tok&3 == tagLiteral {
			tokens = tokens[tok>>2:]
		}
	}
	if tags[tagZeros] == 0 || tags[tagLiteral] == 0 || tags[tagInteger] == 0 {
		t.Fatalf("testdata/delta.golden holds %d zero runs, %d literals and %d integers; want each", tags[0], tags[1], tags[2])
	}
}

// malformedDeltas are envelopes the decoder must refuse, one per rule of the
// token grammar; testdata/fuzz/FuzzDecodeDelta holds each under its name.
func malformedDeltas() map[string][]byte {
	env := func(rawLen int, tokens ...uint64) []byte {
		out := appendDeltaHeader(nil, rawLen)
		for _, t := range tokens {
			out = binary.AppendUvarint(out, t)
		}
		return out
	}
	dense, _ := NewCountMin(xrand.New(1), 4, 1).MarshalBinary()
	return map[string][]byte{
		"tag-3":                env(16, 1<<2|3, 16<<2|tagZeros),
		"tag-3-sized-as-a-run": env(16, 8<<2|3, 8<<2|tagZeros),
		"empty-zero-run":       env(16, 0<<2|tagZeros, 16<<2|tagZeros),
		"empty-literal":        env(16, 0<<2|tagLiteral, 16<<2|tagZeros),
		"integer-zero":         env(16, 0<<2|tagInteger, 8<<2|tagZeros),
		"integer-out-of-range": env(16, (2*maxTokenInteger+1)<<2|tagInteger, 8<<2|tagZeros),
		"truncated-token":      append(env(16), 0x80),
		"overlong-token":       append(env(16), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"zero-run-overrun":     env(16, 17<<2|tagZeros),
		"literal-overrun":      append(env(16, 17<<2|tagLiteral), bytes.Repeat([]byte{1}, 17)...),
		"truncated-literal":    append(env(16, 4<<2|tagLiteral), 1, 2),
		"integer-overrun":      env(4, 2<<2|tagInteger),
		"short-of-length":      env(16, 8<<2|tagZeros),
		"retired-kind-7":       encodeRetiredDeltaOracle(dense),
	}
}

// TestDecodeDeltaRejectsMalformedTokens: each grammar violation is an error,
// and is committed to the fuzz corpus as it is built here.
func TestDecodeDeltaRejectsMalformedTokens(t *testing.T) {
	for name, data := range malformedDeltas() {
		if out, err := DecodeDelta(data); err == nil {
			t.Errorf("%s: decoded to %d bytes, want an error", name, len(out))
		}
		corpus, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeDelta", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data); string(corpus) != want {
			t.Errorf("%s: the committed fuzz input is not the envelope built here", name)
		}
	}
	if _, err := PeekKind(malformedDeltas()["retired-kind-7"]); err == nil || !strings.Contains(err.Error(), "unknown sketch kind 7") {
		t.Fatalf("PeekKind on the retired envelope: %v, want unknown sketch kind 7", err)
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
	local, base := zipfWindow()
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

// zipfWindow is the daemon's shape after two windows of 2^19 Zipf(1.1)
// updates of 1, and the copy it was at between them.
func zipfWindow() (local, base *HeavyHitterTracker) {
	const window = 1 << 19
	z := xrand.NewZipf(xrand.New(1), 1<<20, 1.1)
	items := make([]uint64, 2*window)
	deltas := make([]float64, len(items))
	for i := range items {
		items[i] = uint64(z.Next()) * 0x9e3779b97f4a7c15
		deltas[i] = 1
	}
	local = NewHeavyHitterTracker(xrand.New(1), 65536, 4, 64)
	local.UpdateBatch(items[:window], deltas[:window])
	base = local.Copy()
	local.UpdateBatch(items[window:], deltas[window:])
	return local, base
}

// BenchmarkDecodeDeltaInto measures the receiver's expand step on the
// envelope BenchmarkTrackerDeltaBatch/since-copy encodes, into a warm buffer.
func BenchmarkDecodeDeltaInto(b *testing.B) {
	local, base := zipfWindow()
	env, err := local.AppendDeltaSince(nil, base)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := DecodeDeltaInto(nil, env, maxDeltaInner)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = DecodeDeltaInto(buf, env, maxDeltaInner)
	}
}
