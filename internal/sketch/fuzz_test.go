package sketch

import (
	"bytes"
	"encoding"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/xrand"
)

// Fuzzing the decode surface --------------------------------------------------
//
// Every byte reaching UnmarshalBinary or DecodeDelta in production came off
// the network (a peer's snapshot, a gossip delta) or off disk, so the
// decoders must hold two properties against arbitrary input:
//
//  1. never panic and never allocate unbounded memory — malformed input is
//     answered with an error;
//  2. canonical round trip — any accepted input decodes to a sketch whose
//     re-encoding is a fixed point: encode(decode(enc)) == enc. (The
//     original bytes may differ from the first re-encoding only in
//     non-canonical freedom the format allows, e.g. a conservative-flag
//     byte of 2 or duplicate candidate items; one decode normalizes that.)
//  3. no poison — an accepted float-counter sketch holds only finite
//     counters and mass: a NaN or ±Inf would survive every later merge.
//
// The corpus is seeded with the golden fixtures, so the fuzzer starts from
// every family's real wire format and mutates inward.

// codec is the marshal/unmarshal pair every sketch family implements.
type codec interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// families lists a fresh zero value of every decodable sketch type.
func families() map[string]func() codec {
	return map[string]func() codec{
		"CountMin":    func() codec { return &CountMin{} },
		"CountSketch": func() codec { return &CountSketch{} },
		"Bloom":       func() codec { return &BloomFilter{} },
		"IBLT":        func() codec { return &IBLT{} },
		"Tracker":     func() codec { return &HeavyHitterTracker{} },
		"Dyadic":      func() codec { return &Dyadic{} },
	}
}

func seedGoldenCorpus(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden fixtures found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("reading %s: %v", p, err)
		}
		f.Add(data)
	}
}

// floatCounters returns every float64 counter (and mass) a decoded sketch
// holds; nil for the families that count in integers or bits.
func floatCounters(s codec) []float64 {
	switch s := s.(type) {
	case *CountMin:
		d := s.CounterData()
		return append(d[:len(d):len(d)], s.totalMass)
	case *CountSketch:
		return s.counts
	case *HeavyHitterTracker:
		return floatCounters(s.cm)
	case *Dyadic:
		var all []float64
		for _, cm := range s.levels {
			all = append(all, floatCounters(cm)...)
		}
		return all
	}
	return nil
}

// FuzzUnmarshalBinary throws arbitrary bytes at every family's decoder.
// PeekKind must classify or reject without panicking; each decoder must
// either error or produce a sketch of finite counters whose re-encoding is a
// stable fixed point.
func FuzzUnmarshalBinary(f *testing.F) {
	seedGoldenCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = PeekKind(data) // must not panic on anything
		for name, fresh := range families() {
			s := fresh()
			if err := s.UnmarshalBinary(data); err != nil {
				continue // rejected: fine, as long as it didn't panic
			}
			for i, v := range floatCounters(s) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: decoded with non-finite counter %d = %v", name, i, v)
				}
			}
			enc1, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: decoded successfully but re-encode failed: %v", name, err)
			}
			s2 := fresh()
			if err := s2.UnmarshalBinary(enc1); err != nil {
				t.Fatalf("%s: re-encoding of accepted input does not decode: %v", name, err)
			}
			enc2, err := s2.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: second re-encode failed: %v", name, err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%s: round trip is not a fixed point (%d vs %d bytes)", name, len(enc1), len(enc2))
			}
		}
	})
}

// FuzzDecodeDelta attacks the delta envelope: arbitrary bytes must
// decode-or-error without panicking (with a tight inner-length cap so a
// forged header cannot demand gigabytes), decoding into a dirty, oversized
// reused buffer must give what a fresh decode gives (errors included), and
// an accepted envelope must be exactly what EncodeDelta makes of the inner
// encoding it recovers. Arbitrary bytes, taken as an inner encoding, must
// tokenize as the oracle does and come back through the envelope.
func FuzzDecodeDelta(f *testing.F) {
	seedGoldenCorpus(f)
	// Also seed well-formed envelopes so the fuzzer sees the real format,
	// not just raw sketch bytes it must mutate into one: the fixtures
	// wrapped, and windows of integer counts, where integer tokens sit
	// between zero runs the way they do in every gossip frame.
	paths, _ := filepath.Glob(filepath.Join("testdata", "*.golden"))
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(EncodeDelta(data))
		}
	}
	// And kind-9 envelopes of both methods: a tiny window stays stored, a
	// wide one of integer counts is coded.
	for _, n := range []int{1, 2000} {
		r := xrand.New(uint64(n))
		local := NewHeavyHitterTracker(r, 257, 2, 4)
		base := local.Copy()
		feed(local, r, n, 5000, deltaShapes[0].delta)
		env, _ := local.AppendDeltaSince(nil, base)
		if n == 1 && env[10] != methodStored || n > 1 && env[10] != methodHuffman {
			f.Fatalf("seed window of %d updates has method %d", n, env[10])
		}
		f.Add(env)
	}
	for _, shape := range deltaShapes[:3] {
		for _, n := range []int{10, 200} {
			r := xrand.New(uint64(n))
			local := NewHeavyHitterTracker(r, 61, 2, 4)
			base := local.Copy()
			feed(local, r, n, 500, shape.delta)
			env, _ := local.AppendDeltaSince(nil, base)
			f.Add(env)
		}
	}
	dirty := make([]byte, 1<<16) // larger than most inner encodings the corpus yields, smaller than some
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any bytes are some encoding's inner bytes too: the streaming writer
		// must tokenize them as the oracle does, however they are fed.
		want := encodeDeltaOracle(data)
		if got := encodeDeltaAt(data, len(data)%8); !bytes.Equal(got, want) {
			t.Fatalf("streaming envelope of %d bytes differs from the oracle's (%d vs %d bytes)", len(data), len(got), len(want))
		}
		if back, err := DecodeDeltaLimit(want, len(data)); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("envelope of %d bytes does not decode back to them: %v", len(data), err)
		}
		inner, err := DecodeDeltaLimit(data, 1<<20)
		for i := range dirty {
			dirty[i] = 0xA5
		}
		reused, reusedErr := DecodeDeltaInto(dirty, data, 1<<20)
		if (err == nil) != (reusedErr == nil) || (err != nil && err.Error() != reusedErr.Error()) {
			t.Fatalf("fresh decode says %v, decode into a reused buffer says %v", err, reusedErr)
		}
		if !bytes.Equal(inner, reused) {
			t.Fatalf("decode into a dirty buffer differs from a fresh decode (%d vs %d bytes)", len(reused), len(inner))
		}
		if err != nil {
			return
		}
		if re := EncodeDelta(inner); !bytes.Equal(re, data) {
			t.Fatalf("accepted envelope of %d bytes re-encodes to %d other bytes", len(data), len(re))
		}
	})
}
