package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// frameFormat is one binary format the fuzz harness attacks: its seed
// corpus, and recode, which decodes an input and, when the decoder accepts
// it, returns what the format's encoder makes of the result and how many
// input bytes it spans.
type frameFormat struct {
	name   string
	seeds  func(tb testing.TB) [][]byte
	recode func(t *testing.T, data []byte) (re []byte, n int, ok bool)
}

// frameFormats are the six formats that cross the daemon's process
// boundaries, each an untrusted-input surface:
//
//   - SKB3, every binary POST /v1/update body and SKS1 data frame;
//   - SKQ1 and SKE1, the two ends of a batch read;
//   - SKP1, the state a cold-starting node takes from a bootstrap source or
//     its recovery file, under a section cap;
//   - SKS1, the raw TCP listener and POST /v1/stream, through both the
//     byte-slice parser and the connection reader;
//   - SKD1, POST /v1/delta, which any peer can reach (its payload is opaque
//     here; the sketch package's FuzzDecodeDelta attacks the envelope).
//
// Each format's seeds are valid encodings of every shape it has, near misses
// and its committed fixture.
var frameFormats = []frameFormat{
	{"SKB3", func(tb testing.TB) [][]byte {
		// One seed per record width class: W 1 (a counting stream), the
		// benchmark's W 3, W 8, the two-word W 9 (64-bit keys with int32
		// deltas) and W 16 (IEEE); non-finite deltas, junk and a retired
		// layout.
		return [][]byte{
			AppendBatchColumns(nil, nil, nil),
			AppendBatchColumns(nil, []uint64{1, 2, 3}, []float64{1, -0.5, 3.25}),
			AppendBatchColumns(nil, []uint64{0, ^uint64(0), 1 << 33}, []float64{0, -1e300, 0.1}),
			[]byte("SKB3\x00\x00\x00\x02\x03\x02junkjunkjunk"),
			AppendBatchColumns(nil, []uint64{1, 2}, []float64{1, math.NaN()}),
			AppendBatchColumns(nil, []uint64{1, 2}, []float64{math.Inf(-1), 1}),
			AppendBatchColumns(nil, []uint64{1 << 16, 5}, []float64{-129, 40000}),
			AppendBatchColumns(nil, []uint64{0, 20, 63}, []float64{1, 1, 1}),
			AppendBatchColumns(nil, []uint64{7, 1<<20 - 1, 1 << 16}, []float64{1, 4, 2}),
			AppendBatchColumns(nil, []uint64{1<<31 | 5, 9}, []float64{1<<31 - 1, -(1 << 31)}),
			AppendBatchColumns(nil, []uint64{^uint64(0), 2}, []float64{-1, 1}),
			AppendBatchColumns(nil, []uint64{^uint64(0), 2}, []float64{0.5, 2}),
			AppendBatchColumns(nil, []uint64{3, 4}, []float64{-1, 0}), // db 1
			[]byte("SKB2\x00\x00\x00\x01\x01\x01\x05\x01"),
			readGolden(tb, "batch.golden"),
		}
	}, func(t *testing.T, data []byte) ([]byte, int, bool) {
		items, deltas, err := DecodeBatchColumns(data, nil, nil)
		if err != nil {
			return nil, 0, false
		}
		if len(items) != len(deltas) {
			t.Fatalf("decoded %d items but %d deltas", len(items), len(deltas))
		}
		for i, d := range deltas {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("accepted batch carries non-finite delta %v at record %d", d, i)
			}
		}
		return AppendBatchColumns(nil, items, deltas), len(data), true
	}},
	{"SKQ1", func(tb testing.TB) [][]byte {
		return [][]byte{
			AppendKeyColumns(nil, nil),
			AppendKeyColumns(nil, []uint64{1, 2, 3}),
			AppendKeyColumns(nil, []uint64{0, ^uint64(0), 1 << 33}),
			[]byte("SKQ1\x00\x00\x00\x01junkjunk"),
			readGolden(tb, "keys.golden"),
		}
	}, func(t *testing.T, data []byte) ([]byte, int, bool) {
		keys, err := DecodeKeyColumns(data, nil)
		return AppendKeyColumns(nil, keys), len(data), err == nil
	}},
	{"SKE1", func(tb testing.TB) [][]byte {
		return [][]byte{
			AppendEstimateColumns(nil, 0, nil),
			AppendEstimateColumns(nil, 7, []float64{1, -2.5, math.Inf(1)}),
			[]byte("SKE1\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01junkjunk"),
			readGolden(tb, "estimates.golden"),
		}
	}, func(t *testing.T, data []byte) ([]byte, int, bool) {
		ests, gen, err := DecodeEstimateColumns(data, nil)
		return AppendEstimateColumns(nil, gen, ests), len(data), err == nil
	}},
	{"SKP1", func(tb testing.TB) [][]byte {
		// Plain transfers and junk, then version 2's additions — hearsay,
		// the untracked bit and an empty tracker section — in the committed
		// fixture and in a transfer of real sketches.
		enc := fuzzTracker(tb)
		return [][]byte{
			fuzzBootstrap(tb, BootstrapPayload{
				NodeID:     "node-a",
				LocalGen:   42,
				Watermarks: map[string]uint64{"node-a": 42, "node-b": 7},
				Snapshot:   []byte("snapshot-bytes-stand-in"),
				Senders:    map[string][]byte{"node-a": []byte("tracker-a"), "node-b": []byte("tracker-b")},
			}),
			fuzzBootstrap(tb, BootstrapPayload{NodeID: "x"}),
			[]byte("SKP1\x01\x00\x00\x05junkjunkjunkjunk"),
			readGolden(tb, "bootstrap.golden"),
			fuzzBootstrap(tb, BootstrapPayload{
				NodeID:     "node-a",
				Watermarks: map[string]uint64{"node-b": 7, "node-c": 3},
				Hearsay:    []string{"node-b"},
				Untracked:  true,
				Snapshot:   enc,
				Senders:    map[string][]byte{"node-b": enc, "node-c": {}},
			}),
			[]byte("SKP1\x02\x01\x00\x05junkjunkjunkjunk"),
		}
	}, func(t *testing.T, data []byte) ([]byte, int, bool) {
		p, err := DecodeBootstrapResponse(data, 1<<20)
		if err != nil {
			return nil, 0, false
		}
		re, err := AppendBootstrapResponse(nil, *p)
		if err != nil {
			t.Fatalf("accepted transfer does not re-encode: %v", err)
		}
		return re, len(data), true
	}},
	{"SKS1", func(tb testing.TB) [][]byte {
		// Every frame type, a header declaring 4 GiB, and the fixture.
		return [][]byte{
			AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("session")}),
			AppendStreamFrame(nil, StreamFrame{Type: streamFrameAck,
				Payload: binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 9), 17)}),
			AppendStreamFrame(nil, StreamFrame{Type: streamFrameError, Payload: []byte("bad frame")}),
			appendDataFrame(nil, 1, true, []uint64{7, 1 << 40}, []float64{2.5, -1}),
			appendDataFrame(nil, 2, false, nil, nil),
			[]byte("SKS1\x01\x00\xff\xff\xff\xffjunk"),
			readGolden(tb, "stream.golden"),
		}
	}, func(t *testing.T, data []byte) ([]byte, int, bool) {
		const cap = 1 << 20
		f, n, err := DecodeStreamFrame(data, cap)
		read, rerr := newFrameReader(bytes.NewReader(data), cap).next()
		if (err == nil) != (rerr == nil) {
			t.Fatalf("the slice parser says %v, the connection reader %v", err, rerr)
		}
		if err != nil {
			return nil, 0, false
		}
		if n < streamHeaderLen+streamTrailerLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if read.Type != f.Type || read.AckReq != f.AckReq || !bytes.Equal(read.Payload, f.Payload) {
			t.Fatalf("the connection reader read %+v, the slice parser %+v", read, f)
		}
		return AppendStreamFrame(nil, f), n, true
	}},
	{"SKD1", func(tb testing.TB) [][]byte {
		// A window, a reset and a replace frame, an unknown flag bit, and
		// the fixture.
		envelope := sketch.EncodeDelta(fuzzTracker(tb))
		return [][]byte{
			AppendDeltaFrame(nil, DeltaFrame{Sender: "node-a", FromGen: 4, ToGen: 9, Payload: envelope}),
			AppendDeltaFrame(nil, DeltaFrame{Sender: "node-a", FromGen: 9, ToGen: 9, Reset: true}),
			AppendDeltaFrame(nil, DeltaFrame{Sender: "node-b", ToGen: 12, Replace: true, Payload: envelope}),
			[]byte("SKD1\x01\x04\x00\x01xjunkjunkjunkjunkjunk"),
			readGolden(tb, "delta_frame.golden"),
		}
	}, func(t *testing.T, data []byte) ([]byte, int, bool) {
		f, err := DecodeDeltaFrame(data)
		return AppendDeltaFrame(nil, f), len(data), err == nil
	}},
}

// FuzzFrames hands every input to every format's decoder, starting from
// every format's seeds (fuzzFrames).
func FuzzFrames(f *testing.F) { fuzzFrames(f, frameFormats...) }

// The same harness on one format at a time: the fuzzer spends all its inputs
// on that decoder.

func FuzzDecodeBatchColumns(f *testing.F)      { fuzzFrames(f, frameFormats[0]) }
func FuzzDecodeKeyColumns(f *testing.F)        { fuzzFrames(f, frameFormats[1]) }
func FuzzDecodeBootstrapResponse(f *testing.F) { fuzzFrames(f, frameFormats[3]) }
func FuzzDecodeStreamFrame(f *testing.F)       { fuzzFrames(f, frameFormats[4]) }
func FuzzDecodeDeltaFrame(f *testing.F)        { fuzzFrames(f, frameFormats[5]) }

// fuzzFrames is the one fuzz harness of the formats. Arbitrary bytes must
// decode or fail without panicking and without a declared length sizing
// anything first; every input a decoder accepts must come back from its
// encoder byte for byte — each format has one encoding of what it carries —
// and an accepted SKB3 batch carries no NaN or ±Inf delta.
func fuzzFrames(f *testing.F, formats ...frameFormat) {
	for _, ff := range formats {
		for _, seed := range ff.seeds(f) {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ff := range formats {
			re, n, ok := ff.recode(t, data)
			if ok && !bytes.Equal(re, data[:n]) {
				t.Fatalf("%s: accepted input does not re-encode byte for byte (%d vs %d bytes)", ff.name, len(re), n)
			}
		}
	})
}

// fuzzTracker is the encoding of a small tracker with one update.
func fuzzTracker(tb testing.TB) []byte {
	tr := sketch.NewHeavyHitterTracker(xrand.New(5), 16, 2, 4)
	tr.Update(3, 2)
	enc, err := tr.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// fuzzBootstrap is the SKP1 encoding of p.
func fuzzBootstrap(tb testing.TB, p BootstrapPayload) []byte {
	b, err := AppendBootstrapResponse(nil, p)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
