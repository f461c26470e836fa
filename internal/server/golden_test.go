package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// readGolden returns the committed fixture testdata/name.
func readGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return want
}

// goldenDeltaFrames are the frames testdata/delta_frame.golden freezes,
// concatenated: a window, a reset and a replace frame. The payload is opaque
// to SKD1, so a stand-in spells it.
var goldenDeltaFrames = []DeltaFrame{
	{Sender: "node-a", FromGen: 4, ToGen: 9, Payload: []byte("window-envelope-stand-in")},
	{Sender: "node-b", FromGen: 12, ToGen: 12, Reset: true},
	{Sender: "node-a", ToGen: 1 << 40, Replace: true, Payload: []byte("replace-envelope-stand-in")},
}

// TestDeltaFrameGolden freezes the SKD1 layout: the committed file is the
// golden frames' encodings byte for byte, and each decodes back exactly.
func TestDeltaFrameGolden(t *testing.T) {
	want := readGolden(t, "delta_frame.golden")
	var got []byte
	for _, f := range goldenDeltaFrames {
		got = AppendDeltaFrame(got, f)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding (%d bytes) differs from testdata/delta_frame.golden (%d bytes)", len(got), len(want))
	}
	rest := want
	for i, f := range goldenDeltaFrames {
		n := len(AppendDeltaFrame(nil, f))
		dec, err := DecodeDeltaFrame(rest[:n])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if dec.Sender != f.Sender || dec.FromGen != f.FromGen || dec.ToGen != f.ToGen ||
			dec.Reset != f.Reset || dec.Replace != f.Replace || !bytes.Equal(dec.Payload, f.Payload) {
			t.Fatalf("frame %d decoded as %+v, want %+v", i, dec, f)
		}
		rest = rest[n:]
	}
}

// goldenStreamFrames are the frames testdata/stream.golden freezes,
// concatenated: a hello, a data frame carrying an SKB3 batch, an empty
// ack-requested data frame, an ack and an error frame.
func goldenStreamFrames() [][]byte {
	return [][]byte{
		AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("session-a")}),
		appendDataFrame(nil, 1, false, []uint64{0, 255, 1 << 16, 1<<20 - 1}, []float64{1, 4, 2, 3}),
		appendDataFrame(nil, 2, true, nil, nil),
		appendAckFrame(nil, 2, 77),
		AppendStreamFrame(nil, StreamFrame{Type: streamFrameError, Payload: []byte("stream gap")}),
	}
}

// TestStreamGolden freezes the SKS1 layout: the committed file is the golden
// frames byte for byte, and both parsers — over a byte slice and over a
// reader — walk it back frame by frame, each re-encoding to its bytes.
func TestStreamGolden(t *testing.T) {
	want := readGolden(t, "stream.golden")
	frames := goldenStreamFrames()
	if got := bytes.Join(frames, nil); !bytes.Equal(got, want) {
		t.Fatalf("encoding (%d bytes) differs from testdata/stream.golden (%d bytes)", len(got), len(want))
	}
	types := []byte{streamFrameHello, streamFrameData, streamFrameData, streamFrameAck, streamFrameError}
	fr := newFrameReader(bytes.NewReader(want), 0)
	rest := want
	for i, frame := range frames {
		got, n, err := DecodeStreamFrame(rest, 0)
		if err != nil || n != len(frame) {
			t.Fatalf("frame %d: consumed %d of %d bytes, err %v", i, n, len(frame), err)
		}
		if got.Type != types[i] || got.AckReq != (i == 2) {
			t.Fatalf("frame %d: type %d ack %v", i, got.Type, got.AckReq)
		}
		if re := AppendStreamFrame(nil, got); !bytes.Equal(re, frame) {
			t.Fatalf("frame %d does not re-encode to its bytes", i)
		}
		read, err := fr.next()
		if err != nil || read.Type != got.Type || read.AckReq != got.AckReq || !bytes.Equal(read.Payload, got.Payload) {
			t.Fatalf("frame %d: the reader read %+v (err %v), the slice parser %+v", i, read, err, got)
		}
		rest = rest[n:]
	}
	items, deltas, err := DecodeBatchColumns(frames[1][streamHeaderLen+8:len(frames[1])-streamTrailerLen], nil, nil)
	if err != nil || len(items) != 4 || items[3] != 1<<20-1 || deltas[1] != 4 {
		t.Fatalf("data frame's batch decoded as %v %v (err %v)", items, deltas, err)
	}
}

// goldenKeys is the column testdata/keys.golden freezes.
var goldenKeys = []uint64{0, 1, 1<<20 - 1, 1 << 40, ^uint64(0)}

// TestKeyColumnsGolden freezes the SKQ1 layout: the committed file is the
// golden column's encoding byte for byte, and it decodes back exactly.
func TestKeyColumnsGolden(t *testing.T) {
	want := readGolden(t, "keys.golden")
	if got := AppendKeyColumns(nil, goldenKeys); !bytes.Equal(got, want) {
		t.Fatalf("encoding (%d bytes) differs from testdata/keys.golden (%d bytes)", len(got), len(want))
	}
	keys, err := DecodeKeyColumns(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, goldenKeys) {
		t.Fatalf("decoded %v, want %v", keys, goldenKeys)
	}
}

// goldenEstimates is the column testdata/estimates.golden freezes, answered
// at goldenEstimateGen: integers, a fraction, -0 and both infinities travel
// as their IEEE bits.
var goldenEstimates = []float64{0, 3, -7, 0.5, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}

const goldenEstimateGen = -3

// TestEstimateColumnsGolden freezes the SKE1 layout: the committed file is
// the golden column's encoding byte for byte, and it decodes back bit for
// bit with its generation.
func TestEstimateColumnsGolden(t *testing.T) {
	want := readGolden(t, "estimates.golden")
	if got := AppendEstimateColumns(nil, goldenEstimateGen, goldenEstimates); !bytes.Equal(got, want) {
		t.Fatalf("encoding (%d bytes) differs from testdata/estimates.golden (%d bytes)", len(got), len(want))
	}
	ests, gen, err := DecodeEstimateColumns(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != goldenEstimateGen || len(ests) != len(goldenEstimates) {
		t.Fatalf("decoded gen %d and %d estimates", gen, len(ests))
	}
	for i, e := range ests {
		if math.Float64bits(e) != math.Float64bits(goldenEstimates[i]) {
			t.Fatalf("estimate %d decoded as %#x, want %#x", i, math.Float64bits(e), math.Float64bits(goldenEstimates[i]))
		}
	}
	if binary.BigEndian.Uint32(want[12:16]) != uint32(len(goldenEstimates)) {
		t.Fatalf("golden count word %d", binary.BigEndian.Uint32(want[12:16]))
	}
}
