package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// batchCase is one SKB2 batch and the widths its encoding must carry.
type batchCase struct {
	name   string
	items  []uint64
	deltas []float64
	kw, dw int
}

// goldenBatches are the batches testdata/batch.golden freezes, concatenated:
// one for each delta width.
var goldenBatches = []batchCase{
	{"dw1", []uint64{0, 255, 1 << 16, 1<<20 - 1}, []float64{1, -1, 127, -128}, 3, 1},
	{"dw2", []uint64{7, 300}, []float64{128, -32768}, 2, 2},
	{"dw4", []uint64{1 << 40, 9}, []float64{1<<31 - 1, -(1 << 31)}, 6, 4},
	{"dw8", []uint64{^uint64(0), 2, 3}, []float64{0.5, math.Copysign(0, -1), 1 << 53}, 8, 8},
}

// requireRoundTrip encodes c, checks the widths and size the header
// declares, and decodes it back bit for bit; it returns the encoding.
func requireRoundTrip(t *testing.T, c batchCase) []byte {
	t.Helper()
	body := AppendBatchColumns(nil, c.items, c.deltas)
	if kw, dw := int(body[8]), int(body[9]); kw != c.kw || dw != c.dw {
		t.Fatalf("%s: widths %d+%d, want %d+%d", c.name, kw, dw, c.kw, c.dw)
	}
	if want := batchHeaderLen + len(c.items)*(c.kw+c.dw); len(body) != want {
		t.Fatalf("%s: %d bytes, want %d", c.name, len(body), want)
	}
	items, deltas, err := DecodeBatchColumns(body, nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if len(items) != len(c.items) || len(deltas) != len(c.deltas) {
		t.Fatalf("%s: decoded %d/%d records, want %d", c.name, len(items), len(deltas), len(c.items))
	}
	for i := range c.items {
		if items[i] != c.items[i] || math.Float64bits(deltas[i]) != math.Float64bits(c.deltas[i]) {
			t.Fatalf("%s: record %d decoded as (%d, %#x), want (%d, %#x)", c.name, i,
				items[i], math.Float64bits(deltas[i]), c.items[i], math.Float64bits(c.deltas[i]))
		}
	}
	if re := AppendBatchColumns(nil, items, deltas); !bytes.Equal(re, body) {
		t.Fatalf("%s: re-encoding differs from the wire bytes", c.name)
	}
	return body
}

// TestBatchGolden freezes the SKB2 layout: the committed file is the golden
// batches' encodings byte for byte, and each decodes back bit for bit.
func TestBatchGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "batch.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, c := range goldenBatches {
		got = append(got, requireRoundTrip(t, c)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding (%d bytes) differs from testdata/batch.golden (%d bytes)", len(got), len(want))
	}
	if !bytes.HasPrefix(want, []byte("SKB2\x00\x00\x00\x04\x03\x01")) {
		t.Fatalf("golden header %q, want magic SKB2, 4 records, widths 3+1", want[:batchHeaderLen])
	}
}

// TestBatchWidthBoundaries round-trips a batch at every key-width and
// delta-width edge, bit for bit, and refuses every batch the format does not
// allow before either column grows.
func TestBatchWidthBoundaries(t *testing.T) {
	cases := []batchCase{
		{"empty", nil, nil, 1, 1},
		{"key 0", []uint64{0}, []float64{1}, 1, 1},
		{"key 2^64-1", []uint64{^uint64(0)}, []float64{1}, 8, 1},
	}
	for k := 1; k < 8; k++ {
		edge := uint64(1) << (8 * k)
		cases = append(cases,
			batchCase{fmt.Sprintf("key 2^%d-1", 8*k), []uint64{edge - 1}, []float64{1}, k, 1},
			batchCase{fmt.Sprintf("key 2^%d", 8*k), []uint64{edge}, []float64{1}, k + 1, 1})
	}
	for _, d := range []struct {
		delta float64
		dw    int
	}{
		{0, 1}, {127, 1}, {128, 2}, {-128, 1}, {-129, 2},
		{32767, 2}, {32768, 4}, {-32768, 2}, {-32769, 4},
		{1<<31 - 1, 4}, {1 << 31, 8}, {-(1 << 31), 4}, {-(1 << 31) - 1, 8},
		{0.5, 8}, {math.Copysign(0, -1), 8}, {1 << 53, 8}, {-1e300, 8},
	} {
		cases = append(cases, batchCase{fmt.Sprintf("delta %g (bits %#x)", d.delta, math.Float64bits(d.delta)),
			[]uint64{5, 6}, []float64{1, d.delta}, 1, d.dw})
	}
	for _, c := range cases {
		requireRoundTrip(t, c)
	}

	// NaN and ±Inf: TestDecodeBatchColumnsRefusesNonFinite.
	raw := func(count uint32, kw, dw byte, rest ...byte) []byte {
		b := binary.BigEndian.AppendUint32([]byte("SKB2"), count)
		return append(append(b, kw, dw), rest...)
	}
	valid := AppendBatchColumns(nil, []uint64{5, 1 << 20}, []float64{1, -2})
	for name, body := range map[string][]byte{
		"key width 2 for key 5":     raw(1, 2, 1, 0, 5, 1),
		"key width 2, empty batch":  raw(0, 2, 1),
		"delta width 2 for 1":       raw(1, 1, 2, 5, 0, 1),
		"delta width 4 for 32767":   raw(1, 1, 4, 5, 0, 0, 0x7f, 0xff),
		"delta width 8 for 1.0":     binary.BigEndian.AppendUint64(raw(1, 1, 8, 5), math.Float64bits(1)),
		"delta width 2, empty":      raw(0, 1, 2),
		"key width 0":               raw(1, 0, 1, 1),
		"key width 9":               raw(1, 9, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1),
		"delta width 3":             raw(1, 1, 3, 5, 0, 0, 1),
		"delta width 0":             raw(1, 1, 0, 5),
		"trailing byte":             append(append([]byte(nil), valid...), 0),
		"missing byte":              valid[:len(valid)-1],
		"truncated header":          valid[:batchHeaderLen-1],
		"bad magic":                 append([]byte("SKQ1"), valid[4:]...),
		"count above the records":   raw(3, 1, 1, 5, 1),
		"forged count, no records":  raw(math.MaxUint32, 8, 8),
		"forged count, one record":  raw(math.MaxUint32, 1, 1, 5, 1),
		"retired SKB1 layout":       append([]byte("SKB1\x00\x00\x00\x01"), make([]byte, 16)...),
		"retired SKB1 empty header": []byte("SKB1"),
	} {
		items, deltas, err := DecodeBatchColumns(body, nil, nil)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if cap(items) != 0 || cap(deltas) != 0 {
			t.Fatalf("%s: columns grew to %d/%d before the refusal", name, cap(items), cap(deltas))
		}
		if strings.HasPrefix(name, "retired") && !errors.Is(err, errRetiredBatch) {
			t.Fatalf("%s: err %v, want errRetiredBatch", name, err)
		}
	}
}

// TestBatchRefusalsOverTheWire: a batch that declares more records than the
// body cap allows is refused as over-size before it is decoded — 413 on POST
// /v1/update, an error frame naming the cap on a stream — and an SKB1 body
// is 400 with a message naming the retired format and the way out. None of
// them moves a counter.
func TestBatchRefusalsOverTheWire(t *testing.T) {
	const limit = 1024 // 64 records
	_, client, addr := streamDaemon(t, Config{Width: 128, Depth: 3, K: 8, MaxBodyBytes: limit, MaxFrameBytes: limit})
	ctx := context.Background()
	columns := func(n int) ([]uint64, []float64) {
		items, deltas := make([]uint64, n), make([]float64, n)
		for i := range items {
			items[i], deltas[i] = uint64(i), 1
		}
		return items, deltas
	}

	items, deltas := columns(limit/bodyBytesPerRecord + 1)
	over := AppendBatchColumns(nil, items, deltas)
	if len(over) > limit/4 {
		t.Fatalf("over-cap batch is %d bytes; the test wants it well inside the %d-byte body cap", len(over), limit)
	}
	status, envelope := rawRequest(t, client, "POST", "/v1/update", contentTypeBatch, string(over), "")
	if status != 413 || !strings.Contains(envelope, "cap is 64") {
		t.Fatalf("65 records under a 1 KiB cap: status %d, body %s", status, envelope)
	}
	skb1 := append([]byte("SKB1\x00\x00\x00\x01"), make([]byte, 16)...)
	status, envelope = rawRequest(t, client, "POST", "/v1/update", contentTypeBatch, string(skb1), "")
	if status != 400 || !strings.Contains(envelope, "SKB1") || !strings.Contains(envelope, "same release") || !strings.Contains(envelope, "JSON") {
		t.Fatalf("SKB1 body: status %d, body %s", status, envelope)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := newFrameReader(bufio.NewReader(conn), 0)
	mustWrite(t, conn, AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("over-cap")}))
	if f := mustRead(t, rd); f.Type != streamFrameAck {
		t.Fatalf("want hello ack, got frame type %d", f.Type)
	}
	mustWrite(t, conn, appendDataFrame(nil, 1, true, items, deltas))
	if f := mustRead(t, rd); f.Type != streamFrameError || !bytes.Contains(f.Payload, []byte("cap is 64")) {
		t.Fatalf("over-cap data frame: got frame type %d %q, want an error frame naming the cap", f.Type, f.Payload)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalMass != 0 || st.Updates != 0 || st.Batches != 0 {
		t.Fatalf("refused batches moved the sketch: total_mass %v, updates %d, batches %d", st.TotalMass, st.Updates, st.Batches)
	}
	// At the cap exactly, the batch is taken.
	if err := client.UpdateColumns(ctx, items[:limit/bodyBytesPerRecord], deltas[:limit/bodyBytesPerRecord]); err != nil {
		t.Fatalf("64 records under a 1 KiB cap: %v", err)
	}
}

// TestWideBatchCostsTwoBytes: keys that use all 64 bits with fractional
// deltas — the shape the width rule cannot narrow — cost SKB1's 16 bytes per
// record plus the two width bytes of the header, and no more.
func TestWideBatchCostsTwoBytes(t *testing.T) {
	items, deltas := batchShape(1<<12, true)
	body := AppendBatchColumns(nil, items, deltas)
	if skb1 := 8 + 16*len(items); len(body) > skb1+2 {
		t.Fatalf("%d records of 64-bit keys and fractional deltas: %d bytes, want at most SKB1's %d + 2", len(items), len(body), skb1)
	}
}

// batchShape returns n updates of one of the two shapes BenchmarkBatchColumns
// times: the benchmark workloads' (keys below 2^20, integer deltas 1..4), or
// hashed 64-bit keys with fractional deltas.
func batchShape(n int, hashed bool) ([]uint64, []float64) {
	r := xrand.New(30)
	items, deltas := make([]uint64, n), make([]float64, n)
	for i := range items {
		if hashed {
			items[i], deltas[i] = r.Uint64()|1<<63, r.Float64()+0.5
		} else {
			items[i], deltas[i] = r.Uint64()&(1<<20-1), float64(1+r.Uint64()&3)
		}
	}
	return items, deltas
}

// BenchmarkBatchColumns times the batch codec on 4096-update batches of both
// shapes and reports the wire bytes per update beside the encode and decode
// cost per update.
func BenchmarkBatchColumns(b *testing.B) {
	for _, shape := range []struct {
		name   string
		hashed bool
	}{{"workload", false}, {"hashed", true}} {
		items, deltas := batchShape(4096, shape.hashed)
		body := AppendBatchColumns(nil, items, deltas)
		perUpdate := func(b *testing.B) {
			b.ReportMetric(float64(len(body))/float64(len(items)), "B/update")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(items)), "ns/update")
		}
		b.Run(shape.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, len(body))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendBatchColumns(buf[:0], items, deltas)
			}
			perUpdate(b)
		})
		b.Run(shape.name+"/decode", func(b *testing.B) {
			dstItems, dstDeltas := make([]uint64, 0, len(items)), make([]float64, 0, len(items))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if dstItems, dstDeltas, err = DecodeBatchColumns(body, dstItems[:0], dstDeltas[:0]); err != nil {
					b.Fatal(err)
				}
			}
			perUpdate(b)
		})
	}
}
