package sketch

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// feedStream applies a Zipf stream to an updater with float64 deltas.
func feedStream(s *stream.Stream, update func(item uint64, delta float64)) {
	for _, u := range s.Updates {
		update(u.Item, float64(u.Delta))
	}
}

// TestCountMinRoundTrip: Unmarshal(Marshal(s)) must reproduce every estimate
// exactly, and — because the hash seeds ride along — must keep behaving
// identically on updates applied *after* the round trip.
func TestCountMinRoundTrip(t *testing.T) {
	for _, family := range []hashing.Family{hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation} {
		cm := NewCountMin(xrand.New(7), 512, 4, WithCountMinHashFamily(family))
		s := stream.Zipf(xrand.New(8), 1<<14, 20_000, 1.1)
		feedStream(s, cm.Update)

		data, err := cm.MarshalBinary()
		if err != nil {
			t.Fatalf("family %v: marshal: %v", family, err)
		}
		var back CountMin
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("family %v: unmarshal: %v", family, err)
		}
		if back.TotalMass() != cm.TotalMass() {
			t.Fatalf("family %v: total mass %v != %v", family, back.TotalMass(), cm.TotalMass())
		}
		// Estimates must agree exactly, including on items never seen.
		for item := uint64(0); item < 1<<14; item += 37 {
			if a, b := cm.Estimate(item), back.Estimate(item); a != b {
				t.Fatalf("family %v: estimate(%d) %v != %v after round trip", family, item, a, b)
			}
		}
		// Bit-identical behavior going forward: new updates must land in the
		// same buckets.
		for i := uint64(0); i < 5_000; i++ {
			cm.Update(i*2654435761, 1)
			back.Update(i*2654435761, 1)
		}
		for item := uint64(0); item < 1<<14; item += 91 {
			if a, b := cm.Estimate(item), back.Estimate(item); a != b {
				t.Fatalf("family %v: post-round-trip updates diverged at item %d: %v != %v", family, item, a, b)
			}
		}
	}
}

// TestCountMinConservativeRoundTrip: the conservative flag must survive.
func TestCountMinConservativeRoundTrip(t *testing.T) {
	cm := NewCountMin(xrand.New(3), 128, 4, WithConservativeUpdate())
	for i := uint64(0); i < 1000; i++ {
		cm.Update(i%50, 1)
	}
	data, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back CountMin
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.conservative {
		t.Fatal("conservative flag lost in round trip")
	}
	cm.Update(7, 3)
	back.Update(7, 3)
	if a, b := cm.Estimate(7), back.Estimate(7); a != b {
		t.Fatalf("conservative estimates diverged: %v != %v", a, b)
	}
}

// TestCountSketchRoundTrip: same laws for Count-Sketch, whose estimator also
// depends on the sign functions being reconstructed exactly.
func TestCountSketchRoundTrip(t *testing.T) {
	cs := NewCountSketch(xrand.New(11), 512, 5)
	s := stream.Zipf(xrand.New(12), 1<<14, 20_000, 1.1)
	feedStream(s, cs.Update)

	data, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back CountSketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 1<<14; item += 37 {
		if a, b := cs.Estimate(item), back.Estimate(item); a != b {
			t.Fatalf("estimate(%d) %v != %v after round trip", item, a, b)
		}
	}
	// Turnstile updates after the round trip must keep both in lockstep.
	for i := uint64(0); i < 5_000; i++ {
		delta := float64(1)
		if i%3 == 0 {
			delta = -2
		}
		cs.Update(i*40503, delta)
		back.Update(i*40503, delta)
	}
	for item := uint64(0); item < 1<<14; item += 91 {
		if a, b := cs.Estimate(item), back.Estimate(item); a != b {
			t.Fatalf("post-round-trip updates diverged at item %d: %v != %v", item, a, b)
		}
	}
}

// TestBloomRoundTrip: membership answers must be identical before and after,
// and inserts after the round trip must set the same bits.
func TestBloomRoundTrip(t *testing.T) {
	bf := NewBloomFilter(xrand.New(5), 4096, 5)
	for i := uint64(0); i < 300; i++ {
		bf.Add(i * 7919)
	}
	data, err := bf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back BloomFilter
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Count() != bf.Count() {
		t.Fatalf("count %d != %d", back.Count(), bf.Count())
	}
	for i := uint64(0); i < 2000; i++ {
		if a, b := bf.Contains(i), back.Contains(i); a != b {
			t.Fatalf("contains(%d) %v != %v after round trip", i, a, b)
		}
	}
	for i := uint64(5000); i < 5100; i++ {
		bf.Add(i)
		back.Add(i)
	}
	if !bytes.Equal(u64sToBytes(bf.bits), u64sToBytes(back.bits)) {
		t.Fatal("bit arrays diverged after post-round-trip inserts")
	}
}

func u64sToBytes(words []uint64) []byte {
	out := make([]byte, 0, 8*len(words))
	for _, w := range words {
		for shift := 0; shift < 64; shift += 8 {
			out = append(out, byte(w>>shift))
		}
	}
	return out
}

// TestIBLTRoundTrip: a deserialized table must decode to the same entry set,
// and deletions applied after the round trip must cancel correctly (the
// acid test that the checksum hash was reconstructed exactly).
func TestIBLTRoundTrip(t *testing.T) {
	tb := NewIBLT(xrand.New(9), 256, 4)
	for i := uint64(0); i < 100; i++ {
		tb.Update(i*104729+5, int64(i%7)+1)
	}
	data, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back IBLT
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// Deleting every entry through the deserialized table must leave it empty.
	for i := uint64(0); i < 100; i++ {
		back.Update(i*104729+5, -(int64(i%7) + 1))
	}
	decoded, err := back.ListEntries()
	if err != nil {
		t.Fatalf("decode after cancelling all entries: %v", err)
	}
	if len(decoded) != 0 {
		t.Fatalf("expected empty table after cancelling, got %d entries", len(decoded))
	}
	// And a fresh copy must decode to the original entries.
	var again IBLT
	if err := again.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	entries, err := again.ListEntries()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(entries) != 100 {
		t.Fatalf("expected 100 entries, got %d", len(entries))
	}
	for i := uint64(0); i < 100; i++ {
		if entries[i*104729+5] != int64(i%7)+1 {
			t.Fatalf("entry %d decoded to %d", i, entries[i*104729+5])
		}
	}
}

// TestMergeOverTheWire: the distributed-shard scenario end to end — two
// clones sketch disjoint halves of a stream, one is shipped as bytes, and
// the merge of the reconstruction equals the single-sketch result exactly.
func TestMergeOverTheWire(t *testing.T) {
	proto := NewCountMin(xrand.New(21), 1024, 5)
	single := proto.Clone()
	shardA := proto.Clone()
	shardB := proto.Clone()

	s := stream.Zipf(xrand.New(22), 1<<14, 40_000, 1.1)
	for i, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
		if i%2 == 0 {
			shardA.Update(u.Item, float64(u.Delta))
		} else {
			shardB.Update(u.Item, float64(u.Delta))
		}
	}

	data, err := shardB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var wire CountMin
	if err := wire.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if err := shardA.Merge(&wire); err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 1<<14; item += 13 {
		if a, b := single.Estimate(item), shardA.Estimate(item); a != b {
			t.Fatalf("estimate(%d): single %v != merged-over-wire %v", item, a, b)
		}
	}
}

// TestDyadicRoundTrip: the hierarchy encoding must reproduce every point,
// range and quantile answer exactly, keep behaving identically on later
// updates (hash seeds ride along level by level), and merge over the wire as
// exactly as an in-process merge.
func TestDyadicRoundTrip(t *testing.T) {
	d := NewDyadic(xrand.New(51), 12, 256, 4)
	s := stream.Zipf(xrand.New(52), 1<<12, 25_000, 1.1)
	feedStream(s, d.Update)

	data, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := PeekKind(data); err != nil || kind != KindDyadic {
		t.Fatalf("PeekKind = %v, %v; want KindDyadic", kind, err)
	}
	var back Dyadic
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.LogUniverse() != d.LogUniverse() || back.Universe() != d.Universe() {
		t.Fatalf("shape lost: logU %d/%d", back.LogUniverse(), d.LogUniverse())
	}
	for item := uint64(0); item < 1<<12; item += 19 {
		if a, b := d.Estimate(item), back.Estimate(item); a != b {
			t.Fatalf("estimate(%d) %v != %v after round trip", item, a, b)
		}
	}
	for _, rg := range [][2]uint64{{0, (1 << 12) - 1}, {33, 900}} {
		if a, b := d.RangeSum(rg[0], rg[1]), back.RangeSum(rg[0], rg[1]); a != b {
			t.Fatalf("RangeSum(%d,%d) %v != %v after round trip", rg[0], rg[1], a, b)
		}
	}
	if a, b := d.Quantile(0.5), back.Quantile(0.5); a != b {
		t.Fatalf("median %v != %v after round trip", a, b)
	}
	// Bit-identical behavior going forward.
	for i := uint64(0); i < 3_000; i++ {
		item := (i * 2654435761) % (1 << 12)
		d.Update(item, 1)
		back.Update(item, 1)
	}
	for item := uint64(0); item < 1<<12; item += 41 {
		if a, b := d.Estimate(item), back.Estimate(item); a != b {
			t.Fatalf("post-round-trip updates diverged at item %d: %v != %v", item, a, b)
		}
	}
	// The distributed-shard scenario: a deserialized hierarchy merges exactly.
	single := NewDyadic(xrand.New(53), 10, 128, 3)
	shardA := single.Clone()
	shardB := single.Clone()
	s2 := stream.Zipf(xrand.New(54), 1<<10, 10_000, 1.1)
	for i, u := range s2.Updates {
		single.Update(u.Item, float64(u.Delta))
		if i%2 == 0 {
			shardA.Update(u.Item, float64(u.Delta))
		} else {
			shardB.Update(u.Item, float64(u.Delta))
		}
	}
	wireBytes, err := shardB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var wire Dyadic
	if err := wire.UnmarshalBinary(wireBytes); err != nil {
		t.Fatal(err)
	}
	if err := shardA.Merge(&wire); err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 1<<10; item += 7 {
		if a, b := single.Estimate(item), shardA.Estimate(item); a != b {
			t.Fatalf("estimate(%d): single %v != merged-over-wire %v", item, a, b)
		}
	}
}

// TestDyadicUnmarshalRejectsGarbage: corrupt hierarchy encodings must error.
func TestDyadicUnmarshalRejectsGarbage(t *testing.T) {
	d := NewDyadic(xrand.New(55), 6, 32, 2)
	for i := uint64(0); i < 200; i++ {
		d.Update(i%64, 1)
	}
	good, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var target Dyadic
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": good[:8],
		"truncated level":  good[:30],
		"trailing":         append(append([]byte{}, good...), 1),
		"logU zero":        corruptAt(good, 9, 0), // logU u32 big-endian low byte
	}
	for name, data := range cases {
		if err := target.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
	// Corrupting an embedded level's family byte must surface its error.
	// Layout: dyadic header (6) + logU (4) + level-0 length (4) = 14, then the
	// embedded CountMin header (6) puts the family byte at offset 20.
	badFamily := corruptAt(good, 20, 0xFF)
	if err := target.UnmarshalBinary(badFamily); err == nil {
		t.Error("embedded bad family: expected error, got nil")
	}
}

// corruptAt returns a copy of data with one byte overwritten.
func corruptAt(data []byte, offset int, b byte) []byte {
	out := append([]byte{}, data...)
	out[offset] = b
	return out
}

// TestTrackerRoundTrip: the tracker encoding must reproduce estimates and
// the candidate set exactly, and re-marshalling the reconstruction must give
// byte-identical output (candidates are serialized in sorted order, so the
// encoding is a pure function of the tracker's logical state — the property
// the sketchd restart-recovery check relies on).
func TestTrackerRoundTrip(t *testing.T) {
	tr := NewHeavyHitterTracker(xrand.New(17), 1024, 4, 32)
	s := stream.Zipf(xrand.New(18), 1<<14, 30_000, 1.1)
	feedStream(s, tr.Update)

	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back HeavyHitterTracker
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.K() != tr.K() || back.TotalMass() != tr.TotalMass() {
		t.Fatalf("shape lost: k %d/%d mass %v/%v", back.K(), tr.K(), back.TotalMass(), tr.TotalMass())
	}
	for item := uint64(0); item < 1<<14; item += 37 {
		if a, b := tr.Estimate(item), back.Estimate(item); a != b {
			t.Fatalf("estimate(%d) %v != %v after round trip", item, a, b)
		}
	}
	want := tr.TopK()
	got := back.TopK()
	if len(want) != len(got) {
		t.Fatalf("top-k size %d != %d after round trip", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("top-k[%d] %v != %v after round trip", i, got[i], want[i])
		}
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-marshalling a round-tripped tracker changed the bytes")
	}
	// Updates after the round trip must keep both in lockstep.
	for i := uint64(0); i < 2_000; i++ {
		tr.Update(i*2654435761, 1)
		back.Update(i*2654435761, 1)
	}
	for item := uint64(0); item < 1<<14; item += 91 {
		if a, b := tr.Estimate(item), back.Estimate(item); a != b {
			t.Fatalf("post-round-trip updates diverged at item %d: %v != %v", item, a, b)
		}
	}
}

// TestTrackerUnmarshalRejectsGarbage: corrupt tracker encodings must error.
func TestTrackerUnmarshalRejectsGarbage(t *testing.T) {
	tr := NewHeavyHitterTracker(xrand.New(19), 64, 3, 8)
	for i := uint64(0); i < 100; i++ {
		tr.Update(i%10, 1)
	}
	good, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var target HeavyHitterTracker
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": good[:9],
		"truncated embed":  good[:20],
		"trailing":         append(append([]byte{}, good...), 1),
	}
	for name, data := range cases {
		if err := target.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
	// Corrupting the embedded Count-Min's family byte must surface its error.
	// Layout: tracker header (6) + k (4) + cmLen (4) = 14, then the embedded
	// CountMin header (6) puts the family byte at offset 20.
	badFamily := append([]byte{}, good...)
	badFamily[20] = 0xFF
	if err := target.UnmarshalBinary(badFamily); err == nil {
		t.Error("embedded bad family: expected error, got nil")
	}
}

// TestPeekKind: the transport-facing header probe.
func TestPeekKind(t *testing.T) {
	cm := NewCountMin(xrand.New(1), 8, 2)
	tr := NewHeavyHitterTracker(xrand.New(2), 8, 2, 4)
	bf := NewBloomFilter(xrand.New(3), 64, 3)

	for _, tc := range []struct {
		marshal func() ([]byte, error)
		want    Kind
	}{
		{cm.MarshalBinary, KindCountMin},
		{tr.MarshalBinary, KindTracker},
		{bf.MarshalBinary, KindBloom},
	} {
		data, err := tc.marshal()
		if err != nil {
			t.Fatal(err)
		}
		kind, err := PeekKind(data)
		if err != nil {
			t.Fatal(err)
		}
		if kind != tc.want {
			t.Errorf("PeekKind = %v, want %v", kind, tc.want)
		}
	}
	for name, data := range map[string][]byte{
		"short":        {1, 2, 3},
		"bad magic":    []byte("NOPE\x01\x01"),
		"bad version":  {'S', 'K', 'C', '1', 99, 1},
		"unknown kind": {'S', 'K', 'C', '1', encodingVersion, 200},
	} {
		if _, err := PeekKind(data); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
}

// TestUnmarshalRejectsGarbage: corrupt inputs must error, not panic or
// allocate unbounded memory.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	cm := NewCountMin(xrand.New(1), 8, 2)
	good, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var target CountMin
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), good[4:]...),
		"truncated": good[:len(good)-5],
		"trailing":  append(append([]byte{}, good...), 0xFF),
	}
	for name, data := range cases {
		if err := target.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}

	// Wrong kind: a CountSketch encoding fed to a CountMin decoder.
	cs := NewCountSketch(xrand.New(2), 8, 3)
	wrongKind, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := target.UnmarshalBinary(wrongKind); err == nil {
		t.Error("wrong kind: expected error, got nil")
	}

	// Version from the future.
	future := append([]byte{}, good...)
	future[4] = encodingVersion + 1
	if err := target.UnmarshalBinary(future); err == nil {
		t.Error("future version: expected error, got nil")
	}

	// Unknown hash family byte must error, not panic in hashing.NewHasher.
	badFamily := append([]byte{}, good...)
	badFamily[6] = 0xFF
	if err := target.UnmarshalBinary(badFamily); err == nil {
		t.Error("unknown family: expected error, got nil")
	}

	// A tiny buffer claiming huge dimensions must be rejected before any
	// allocation (the payload length check runs first).
	huge := append([]byte{}, good[:8]...) // magic, version, kind, family, flag
	w := writer{buf: huge}
	w.u32(1 << 30) // width
	w.u32(1 << 30) // depth
	w.u64(0)       // seed
	w.u64(0)       // totalMass
	if err := target.UnmarshalBinary(w.buf); err == nil {
		t.Error("petabyte-scale header on a 32-byte buffer: expected error, got nil")
	}
}

// TestUnmarshalRefusesNonFiniteCounters: a NaN or ±Inf in any counter, or in
// the Count-Min's total mass, fails the decode of every family that carries
// float64 counters and leaves the target as it was; finite extremes decode.
func TestUnmarshalRefusesNonFiniteCounters(t *testing.T) {
	poison := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000000), // negative quiet NaN
	}
	for name, build := range map[string]func(v float64) (codec, codec){
		"CountMin counter": func(v float64) (codec, codec) {
			cm := NewCountMin(xrand.New(1), 8, 2)
			cm.widen()
			cm.counts[len(cm.counts)-1] = v
			return cm, cm.Clone()
		},
		"CountMin mass": func(v float64) (codec, codec) {
			cm := NewCountMin(xrand.New(1), 8, 2)
			cm.totalMass = v
			return cm, cm.Clone()
		},
		"CountSketch": func(v float64) (codec, codec) {
			cs := NewCountSketch(xrand.New(1), 8, 3)
			cs.counts[0] = v
			return cs, cs.Clone()
		},
		"Tracker": func(v float64) (codec, codec) {
			tr := NewHeavyHitterTracker(xrand.New(1), 8, 2, 4)
			tr.cm.widen()
			tr.cm.counts[3] = v
			return tr, tr.Clone()
		},
		"Dyadic": func(v float64) (codec, codec) {
			dy := NewDyadic(xrand.New(1), 4, 8, 2)
			dy.levels[2].widen()
			dy.levels[2].counts[5] = v
			return dy, dy.Clone()
		},
	} {
		for _, v := range poison {
			src, target := build(v)
			data, err := src.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			before, _ := target.MarshalBinary()
			if err := target.UnmarshalBinary(data); err == nil || !strings.Contains(err.Error(), "not finite") {
				t.Errorf("%s = %#x: err = %v, want a not-finite refusal", name, math.Float64bits(v), err)
			}
			if after, _ := target.MarshalBinary(); !bytes.Equal(before, after) {
				t.Errorf("%s = %#x: the refused decode changed its target", name, math.Float64bits(v))
			}
		}
		for _, v := range []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)} {
			src, target := build(v)
			data, _ := src.MarshalBinary()
			if err := target.UnmarshalBinary(data); err != nil {
				t.Errorf("%s = %v: finite value refused: %v", name, v, err)
			}
		}
	}
}
