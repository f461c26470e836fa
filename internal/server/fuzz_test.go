package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// FuzzDecodeBatchColumns attacks the "SKB1" ingest frame parser — the
// hottest untrusted-input surface in the daemon (every POST /v1/batch body
// lands here). Arbitrary bytes must decode-or-error without panicking and
// without header-driven allocation; accepted input must re-encode through
// AppendBatchColumns byte-identically (the format has no non-canonical
// freedom — counts, items and delta bits are all verbatim), and every delta
// it yields must be finite: NaN and ±Inf never get past this boundary.
func FuzzDecodeBatchColumns(f *testing.F) {
	f.Add(AppendBatchColumns(nil, nil, nil))
	f.Add(AppendBatchColumns(nil, []uint64{1, 2, 3}, []float64{1, -0.5, 3.25}))
	f.Add(AppendBatchColumns(nil,
		[]uint64{0, ^uint64(0), 1 << 33},
		[]float64{0, -1e300, 0.1}))
	f.Add([]byte("SKB1\x00\x00\x00\x01junkjunkjunkjunk"))
	f.Add(AppendBatchColumns(nil, []uint64{1, 2}, []float64{1, math.NaN()}))
	f.Add(AppendBatchColumns(nil, []uint64{1, 2}, []float64{math.Inf(-1), 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, deltas, err := DecodeBatchColumns(data, nil, nil)
		if err != nil {
			return
		}
		if len(items) != len(deltas) {
			t.Fatalf("decoded %d items but %d deltas", len(items), len(deltas))
		}
		for i, d := range deltas {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("accepted batch carries non-finite delta %v at record %d", d, i)
			}
		}
		re := AppendBatchColumns(nil, items, deltas)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted batch does not re-encode byte-identically (%d vs %d bytes)", len(re), len(data))
		}
	})
}

// FuzzDecodeKeyColumns attacks the "SKQ1" batch-read key column parser — the
// untrusted-input surface of POST /v1/query. Arbitrary bytes must
// decode-or-error without panicking and without header-driven allocation;
// accepted input must re-encode through AppendKeyColumns byte-identically
// (the format is canonical: count and key bits are verbatim).
func FuzzDecodeKeyColumns(f *testing.F) {
	f.Add(AppendKeyColumns(nil, nil))
	f.Add(AppendKeyColumns(nil, []uint64{1, 2, 3}))
	f.Add(AppendKeyColumns(nil, []uint64{0, ^uint64(0), 1 << 33}))
	f.Add([]byte("SKQ1\x00\x00\x00\x01junkjunk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := DecodeKeyColumns(data, nil)
		if err != nil {
			return
		}
		re := AppendKeyColumns(nil, keys)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted key column does not re-encode byte-identically (%d vs %d bytes)", len(re), len(data))
		}
	})
}

// FuzzDecodeBootstrapResponse attacks the "SKP1" state-transfer parser — the
// untrusted surface of a cold-starting node, which feeds whatever a
// configured bootstrap source returns straight into this decoder. Arbitrary
// bytes must decode-or-error without panicking, declared section lengths
// must be validated against the remaining input (and the caller's section
// cap) before any allocation, and any accepted transfer must re-encode
// through AppendBootstrapResponse byte-identically: the encoding is
// canonical (sections in fixed order, hearsay and sender ids strictly
// ascending), so decode∘encode is a fixed point on everything the decoder
// accepts.
func FuzzDecodeBootstrapResponse(f *testing.F) {
	golden, err := AppendBootstrapResponse(nil, BootstrapPayload{
		NodeID:     "node-a",
		LocalGen:   42,
		Watermarks: map[string]uint64{"node-a": 42, "node-b": 7},
		Snapshot:   []byte("snapshot-bytes-stand-in"),
		Senders: map[string][]byte{
			"node-a": []byte("tracker-a"),
			"node-b": []byte("tracker-b"),
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	empty, err := AppendBootstrapResponse(nil, BootstrapPayload{NodeID: "x"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte("SKP1\x01\x00\x00\x05junkjunkjunkjunk"))
	// Version 2's additions: hearsay, the untracked bit and an empty tracker
	// section, in the committed fixture and in a frame of real sketches.
	fixture, err := os.ReadFile(filepath.Join("testdata", "bootstrap.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	sk := sketch.NewHeavyHitterTracker(xrand.New(5), 16, 2, 4)
	sk.Update(3, 2)
	enc, err := sk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	v2, err := AppendBootstrapResponse(nil, BootstrapPayload{
		NodeID:     "node-a",
		Watermarks: map[string]uint64{"node-b": 7, "node-c": 3},
		Hearsay:    []string{"node-b"},
		Untracked:  true,
		Snapshot:   enc,
		Senders:    map[string][]byte{"node-b": enc, "node-c": {}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add([]byte("SKP1\x02\x01\x00\x05junkjunkjunkjunk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeBootstrapResponse(data, 1<<20)
		if err != nil {
			return
		}
		re, err := AppendBootstrapResponse(nil, *payload)
		if err != nil {
			t.Fatalf("accepted transfer does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted transfer does not re-encode byte-identically (%d vs %d bytes)", len(re), len(data))
		}
	})
}

// FuzzDecodeStreamFrame attacks the "SKS1" streaming-ingest frame parser —
// the untrusted surface of the raw TCP listener and POST /v1/stream.
// Arbitrary bytes must decode-or-error without panicking, the declared-length
// cap must hold before any allocation, and any accepted frame must re-encode
// through AppendStreamFrame to exactly the bytes consumed (the encoding is
// canonical: unknown versions, flag bits and types are all rejected).
func FuzzDecodeStreamFrame(f *testing.F) {
	f.Add(AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("session")}))
	f.Add(AppendStreamFrame(nil, StreamFrame{Type: streamFrameAck,
		Payload: binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 9), 17)}))
	f.Add(AppendStreamFrame(nil, StreamFrame{Type: streamFrameError, Payload: []byte("bad frame")}))
	f.Add(appendDataFrame(nil, 1, true, []uint64{7, 1 << 40}, []float64{2.5, -1}))
	f.Add(appendDataFrame(nil, 2, false, nil, nil))
	f.Add([]byte("SKS1\x01\x00\xff\xff\xff\xffjunk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeStreamFrame(data, 1<<20)
		if err != nil {
			return
		}
		if n < streamHeaderLen+streamTrailerLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		re := AppendStreamFrame(nil, frame)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted frame does not re-encode byte-identically (%d vs %d bytes)", len(re), n)
		}
	})
}
