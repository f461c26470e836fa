package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// batchCase is one SKB3 batch and the header its encoding must carry.
type batchCase struct {
	name   string
	items  []uint64
	deltas []float64
	kb, db int
}

// goldenBatches are the batches testdata/batch.golden freezes, concatenated:
// records of 1, 2, 3, 8, 9, 12 and 16 bytes, counting deltas, ±1 turnstile
// deltas, the int32 extremes, and IEEE deltas beside short and full 64-bit
// keys.
var goldenBatches = []batchCase{
	{"workload", []uint64{0, 255, 1 << 16, 1<<20 - 1}, []float64{1, 4, 2, 3}, 20, 4},
	{"W1 counting", []uint64{0, 20, 63}, []float64{1, 1, 1}, 6, 2},
	{"W1", []uint64{5, 15, 0}, []float64{3, 1, 2}, 4, 3},
	{"turnstile", []uint64{7, 300}, []float64{1, -1}, 9, 2},
	{"W8", []uint64{1<<31 | 5, 9}, []float64{1<<31 - 1, -(1 << 31)}, 32, 32},
	{"W9", []uint64{^uint64(0), 2}, []float64{1, -2}, 64, 2},
	{"W9 IEEE", []uint64{3, 200}, []float64{0.25, 1}, 8, 64},
	{"W12", []uint64{^uint64(0), 1}, []float64{-(1 << 31), 7}, 64, 32},
	{"W16", []uint64{^uint64(0), 2, 3}, []float64{0.5, math.Copysign(0, -1), 1 << 53}, 64, 64},
}

// batchHeaderOf reads the bit lengths past an SKB3 batch's magic and count.
func batchHeaderOf(body []byte) (kb, db int) {
	return int(body[8]), int(body[9])
}

// requireRoundTrip encodes c, checks the header fields and size, and decodes
// it back bit for bit; it returns the encoding.
func requireRoundTrip(t *testing.T, c batchCase) []byte {
	t.Helper()
	body := AppendBatchColumns(nil, c.items, c.deltas)
	if kb, db := batchHeaderOf(body); kb != c.kb || db != c.db {
		t.Fatalf("%s: header kb %d db %d, want %d %d", c.name, kb, db, c.kb, c.db)
	}
	if want := batchHeaderLen + len(c.items)*((c.kb+c.db+7)/8); len(body) != want {
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

// TestBatchGolden freezes the SKB3 layout: the committed file is the golden
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
	if !bytes.HasPrefix(want, []byte("SKB3\x00\x00\x00\x04\x14\x04")) {
		t.Fatalf("golden header %q, want magic SKB3, 4 records, kb 20, db 4", want[:batchHeaderLen])
	}
}

// TestBatchWidthBoundaries round-trips a batch at every key- and delta-bit
// edge, bit for bit, and refuses every batch the format does not allow:
// before either column grows when the header alone decides, and with the
// caller's columns handed back as they were when the records do.
func TestBatchWidthBoundaries(t *testing.T) {
	cases := []batchCase{
		{"empty", nil, nil, 1, 1},
		{"key 0", []uint64{0}, []float64{1}, 1, 2},
		{"key 2^64-1", []uint64{^uint64(0)}, []float64{1}, 64, 2},
		{"delta 0", []uint64{5}, []float64{0}, 3, 1},
		{"delta -1", []uint64{5, 6}, []float64{-1, 0}, 3, 1},
		{"delta -2^31", []uint64{5}, []float64{-(1 << 31)}, 3, 32},
		{"delta 2^31-1", []uint64{5, 6}, []float64{1<<31 - 1, 1<<31 - 1}, 3, 32},
	}
	for k := 1; k < 64; k++ {
		edge := uint64(1) << k
		cases = append(cases,
			batchCase{fmt.Sprintf("key 2^%d-1", k), []uint64{edge - 1}, []float64{1}, k, 2},
			batchCase{fmt.Sprintf("key 2^%d", k), []uint64{edge}, []float64{1}, k + 1, 2})
	}
	// Both ends of every delta bit length, and the first delta past each.
	for db := 1; db <= 32; db++ {
		lo, hi := -float64(uint64(1)<<(db-1)), float64(uint64(1)<<(db-1)-1)
		cases = append(cases, batchCase{fmt.Sprintf("deltas %g and %g", lo, hi), []uint64{5, 6}, []float64{lo, hi}, 3, db})
		if db < 32 {
			cases = append(cases,
				batchCase{fmt.Sprintf("delta %g", hi+1), []uint64{5}, []float64{hi + 1}, 3, db + 1},
				batchCase{fmt.Sprintf("delta %g", lo-1), []uint64{5}, []float64{lo - 1}, 3, db + 1})
		}
	}
	// Every key bit length the record layout treats apart, against every
	// delta bit length it does: a delta reaching bit db-1, and IEEE bits.
	for _, kb := range []int{1, 7, 8, 9, 56, 57, 63, 64} {
		key := uint64(1) << (kb - 1)
		for _, db := range []int{1, 2, 31, 32, 64} {
			c := batchCase{fmt.Sprintf("kb %d db %d", kb, db), []uint64{key, 0}, []float64{-float64(uint64(1) << (db - 1)), 0}, kb, db}
			if db == 64 {
				c.deltas = []float64{0.5, 1}
			}
			cases = append(cases, c)
		}
	}
	// Deltas SKB2 could not carry in an int32 column travel as IEEE bits.
	for _, d := range []float64{1 << 31, -(1 << 31) - 1, 0.5, math.Copysign(0, -1), 1 << 53, -1e300} {
		cases = append(cases, batchCase{fmt.Sprintf("delta %g (bits %#x)", d, math.Float64bits(d)),
			[]uint64{5, 6}, []float64{1, d}, 3, 64})
	}
	for _, c := range cases {
		requireRoundTrip(t, c)
	}

	// NaN and ±Inf: TestDecodeBatchColumnsRefusesNonFinite.
	raw := func(count uint32, kb, db byte, records ...byte) []byte {
		b := binary.BigEndian.AppendUint32([]byte("SKB3"), count)
		return append(append(b, kb, db), records...)
	}
	ieee := func(key byte, d float64) []byte {
		return binary.BigEndian.AppendUint64([]byte{key}, math.Float64bits(d))
	}
	valid := AppendBatchColumns(nil, []uint64{5, 1 << 20}, []float64{1, -2})
	for _, c := range []struct {
		name string
		body []byte
		// pass is true for the refusals that need the records decoded.
		pass bool
	}{
		{"key bits 0", raw(1, 0, 1, 5), false},
		{"key bits 65", raw(1, 65, 1, make([]byte, 9)...), false},
		{"delta bits 0", raw(1, 1, 0, 1), false},
		{"delta bits 33", raw(1, 1, 33, 0, 0, 0, 0, 0, 1), false},
		{"delta bits 63", raw(1, 1, 63, make([]byte, 8)...), false},
		{"trailing byte", append(append([]byte(nil), valid...), 0), false},
		{"missing byte", valid[:len(valid)-1], false},
		{"truncated header", valid[:batchHeaderLen-1], false},
		{"bad magic", append([]byte("SKQ1"), valid[4:]...), false},
		{"count above the records", raw(3, 1, 2, 2, 1), false},
		{"forged count, no records", raw(math.MaxUint32, 64, 64), false},
		{"forged count, one record", raw(math.MaxUint32, 1, 1, 1), false},
		{"retired SKB1 layout", append([]byte("SKB1\x00\x00\x00\x01"), make([]byte, 16)...), false},
		{"retired SKB1 empty header", []byte("SKB1"), false},
		{"retired SKB2 layout", []byte("SKB2\x00\x00\x00\x01\x01\x01\x05\x01"), false},
		{"retired SKB2 empty header", []byte("SKB2"), false},
		{"record bit above kb+db", raw(1, 4, 2, 0x40), true},
		{"record bit above kb+db, two words", raw(2, 64, 1, 0x03, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), true},
		{"no key with bit kb-1", raw(1, 2, 1, 0x01), true},
		{"key bits 2 in an empty batch", raw(0, 2, 1), true},
		{"no delta needs db bits", raw(2, 1, 4, 1<<4|1, 0<<4|2), true},
		{"no negative delta needs db bits", raw(2, 1, 3, 1<<3|7, 0<<3|0), true},
		{"delta bits 2 in an empty batch", raw(0, 1, 2), true},
		{"IEEE deltas all int32", append(raw(2, 1, 64, ieee(1, 1)...), ieee(0, -(1<<31))...), true},
		{"IEEE deltas in an empty batch", raw(0, 1, 64), true},
	} {
		items, deltas, err := DecodeBatchColumns(c.body, []uint64{42}, []float64{0.5})
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if len(items) != 1 || items[0] != 42 || len(deltas) != 1 || deltas[0] != 0.5 {
			t.Fatalf("%s: columns came back as %v / %v, want the caller's own", c.name, items, deltas)
		}
		if !c.pass && (cap(items) != 1 || cap(deltas) != 1) {
			t.Fatalf("%s: columns grew to %d/%d before the refusal", c.name, cap(items), cap(deltas))
		}
		if strings.HasPrefix(c.name, "retired") && !errors.Is(err, errRetiredBatch) {
			t.Fatalf("%s: err %v, want errRetiredBatch", c.name, err)
		}
	}
}

// TestBatchNeverLargerThanSKB2: over random batches of every key and delta
// shape, an SKB3 batch is never longer than SKB2's 10-byte header and
// whole-byte columns would be (kb <= 8·kw, db <= 8·dw), and each round-trips
// bit for bit.
func TestBatchNeverLargerThanSKB2(t *testing.T) {
	r := xrand.New(39)
	deltaKinds := []func() float64{
		func() float64 { return float64(1 + r.Uint64()&3) },
		func() float64 { return float64(int64(r.Uint64()&0xff) - 128) },
		func() float64 { return float64(int32(r.Uint64())) },
		func() float64 { return float64(int64(r.Uint64()) >> 20) },
		func() float64 { return r.Float64() },
		func() float64 { return math.Copysign(0, -1) },
		func() float64 { return 0 },
	}
	for trial := 0; trial < 2000; trial++ {
		n := int(r.Uint64() % 40)
		keyBits := uint(r.Uint64() % 65)
		kinds := deltaKinds[:1+r.Uint64()%uint64(len(deltaKinds))]
		items, deltas := make([]uint64, n), make([]float64, n)
		for i := range items {
			items[i] = r.Uint64() >> (64 - keyBits)
			deltas[i] = kinds[r.Uint64()%uint64(len(kinds))]()
		}
		var keys uint64
		for _, k := range items {
			keys |= k
		}
		c := batchCase{name: fmt.Sprintf("trial %d", trial), items: items, deltas: deltas, kb: max(1, bits.Len64(keys)), db: ieeeDeltas}
		lo, hi, ints := deltaSpan(deltas)
		if ints {
			// The fewest two's-complement bits whose range holds lo..hi.
			for c.db = 1; lo < -(1<<(c.db-1)) || hi > 1<<(c.db-1)-1; c.db++ {
			}
		}
		body := requireRoundTrip(t, c)
		// SKB2: a 10-byte header, each key in the fewest whole bytes that
		// hold the largest, each delta in 1, 2 or 4 bytes when all are
		// integers an int32 holds (none -0), 8 otherwise.
		kw, dw := max(1, (bits.Len64(keys)+7)/8), 8
		switch {
		case !ints:
		case lo >= math.MinInt8 && hi <= math.MaxInt8:
			dw = 1
		case lo >= math.MinInt16 && hi <= math.MaxInt16:
			dw = 2
		default:
			dw = 4
		}
		if skb2 := 10 + n*(kw+dw); len(body) > skb2 {
			t.Fatalf("trial %d: %d records take %d bytes, SKB2 took %d", trial, n, len(body), skb2)
		}
	}
}

// deltaSpan returns the least delta but no more than 0, the greatest but no
// less than 0, and true when every delta is an integer an int32 holds and
// none is -0.
func deltaSpan(deltas []float64) (lo, hi int64, ints bool) {
	for _, d := range deltas {
		if float64(int32(d)) != d || math.Signbit(d) && d == 0 {
			return 0, 0, false
		}
		lo, hi = min(lo, int64(d)), max(hi, int64(d))
	}
	return lo, hi, true
}

// TestBatchRefusalsOverTheWire: a batch that declares more records than the
// body cap allows is refused as over-size before it is decoded — 413 on POST
// /v1/update, an error frame naming the cap on a stream — and an SKB1 or
// SKB2 body is 400 with a message naming the retired format and the way
// out. None of them moves a counter.
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
	for name, body := range map[string][]byte{
		"SKB1": append([]byte("SKB1\x00\x00\x00\x01"), make([]byte, 16)...),
		"SKB2": []byte("SKB2\x00\x00\x00\x01\x01\x01\x05\x01"),
	} {
		status, envelope = rawRequest(t, client, "POST", "/v1/update", contentTypeBatch, string(body), "")
		if status != 400 || !strings.Contains(envelope, name) || !strings.Contains(envelope, "same release") || !strings.Contains(envelope, "JSON") {
			t.Fatalf("%s body: status %d, body %s", name, status, envelope)
		}
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

// TestIngestBytesCountsBinaryBatches: /v1/stats ingest_bytes is exactly the
// SKB3 bytes of the accepted POST bodies and stream data frames (the batch
// after each frame's seq, an empty ack nudge included); JSON bodies and
// refused batches add nothing.
func TestIngestBytesCountsBinaryBatches(t *testing.T) {
	_, client, addr := streamDaemon(t, Config{Width: 128, Depth: 3, K: 8})
	ctx := context.Background()
	var want int
	for _, n := range []int{3, 256} {
		items, deltas := batchShape(n, false)
		if err := client.UpdateColumns(ctx, items, deltas); err != nil {
			t.Fatal(err)
		}
		want += len(AppendBatchColumns(nil, items, deltas))
	}
	if status, body := rawRequest(t, client, "POST", "/v1/update", contentTypeJSON, `{"updates":[{"item":1,"delta":2}]}`, ""); status != 200 {
		t.Fatalf("JSON POST: status %d, body %s", status, body)
	}
	if status, _ := rawRequest(t, client, "POST", "/v1/update", contentTypeBatch, "SKB3\x00\x00\x00\x01\x02\x02\x01", ""); status != 400 {
		t.Fatalf("non-canonical batch: status %d, want 400", status)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := newFrameReader(bufio.NewReader(conn), 0)
	mustWrite(t, conn, AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("ingest-bytes")}))
	if f := mustRead(t, rd); f.Type != streamFrameAck {
		t.Fatalf("want hello ack, got frame type %d", f.Type)
	}
	items, deltas := batchShape(4096, true)
	for seq, cols := range [][2]int{{0, 4096}, {0, 0}} {
		mustWrite(t, conn, appendDataFrame(nil, uint64(seq+1), true, items[cols[0]:cols[1]], deltas[cols[0]:cols[1]]))
		if f := mustRead(t, rd); f.Type != streamFrameAck {
			t.Fatalf("data frame %d: got frame type %d %q, want an ack", seq+1, f.Type, f.Payload)
		}
		want += len(AppendBatchColumns(nil, items[cols[0]:cols[1]], deltas[cols[0]:cols[1]]))
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestBytes != int64(want) {
		t.Fatalf("ingest_bytes %d, want %d", st.IngestBytes, want)
	}
}

// TestWideBatchCostsTwoBytes: keys that use all 64 bits with fractional
// deltas — the shape the record rule cannot narrow — take the two-word
// record, 16 bytes as in SKB1, so the batch costs SKB1's bytes plus the two
// header bytes (the bit lengths) SKB1 did not have.
func TestWideBatchCostsTwoBytes(t *testing.T) {
	items, deltas := batchShape(1<<12, true)
	body := AppendBatchColumns(nil, items, deltas)
	if kb, db := batchHeaderOf(body); kb != 64 || db != ieeeDeltas {
		t.Fatalf("64-bit keys and fractional deltas: kb %d, db %d, want 64 and %d", kb, db, ieeeDeltas)
	}
	if skb1 := 8 + 16*len(items); len(body) != skb1+2 {
		t.Fatalf("%d records of 64-bit keys and fractional deltas: %d bytes, want SKB1's %d + 2", len(items), len(body), skb1)
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
