package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// nonFinite lists delta bit patterns the update decode boundary must refuse:
// both infinities and NaNs of either sign, quiet and signalling.
var nonFinite = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8000000000000), // negative quiet NaN
}

// TestDecodeBatchColumnsRefusesNonFinite: a NaN or ±Inf delta anywhere in an
// SKB1 body fails the decode with errNonFiniteDelta and hands the caller's
// columns back untouched; every finite pattern, extremes included, decodes.
func TestDecodeBatchColumnsRefusesNonFinite(t *testing.T) {
	for _, bad := range nonFinite {
		body := AppendBatchColumns(nil, []uint64{1, 2, 3}, []float64{1, bad, 3})
		items, deltas, err := DecodeBatchColumns(body, []uint64{7}, []float64{8})
		if !errors.Is(err, errNonFiniteDelta) {
			t.Fatalf("delta bits %#x: err = %v, want errNonFiniteDelta", math.Float64bits(bad), err)
		}
		if len(items) != 1 || items[0] != 7 || len(deltas) != 1 || deltas[0] != 8 {
			t.Fatalf("delta bits %#x: columns came back as %v / %v, want the caller's own [7] / [8]", math.Float64bits(bad), items, deltas)
		}
	}
	finite := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	body := AppendBatchColumns(nil, make([]uint64, len(finite)), finite)
	if _, deltas, err := DecodeBatchColumns(body, nil, nil); err != nil || len(deltas) != len(finite) {
		t.Fatalf("finite extremes: decoded %d of %d deltas, err %v", len(deltas), len(finite), err)
	}
}

// TestNonFiniteDeltaTouchesNothing drives one poisoned batch down every
// update path of a live daemon — SKB1 POST, JSON POST, SKS1 data frame — and
// one poisoned sketch down both replica paths — a /v1/merge body, a /v1/delta
// frame — and requires a refusal each time with no counter, mass, generation
// or watermark moved.
func TestNonFiniteDeltaTouchesNothing(t *testing.T) {
	cfg := Config{Width: 256, Depth: 3, K: 8, Seed: 4}
	_, client, addr := streamDaemon(t, cfg)
	ctx := context.Background()
	items := []uint64{10, 11, 12}

	requireUntouched := func(step string) {
		t.Helper()
		st, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.TotalMass != 0 || st.Updates != 0 || st.Batches != 0 || st.Gen != 0 {
			t.Fatalf("%s: stats moved: total_mass %v, updates %d, batches %d, gen %d", step, st.TotalMass, st.Updates, st.Batches, st.Gen)
		}
		if st.Merges != 0 || st.DeltasApplied != 0 || len(st.Watermarks) != 0 {
			t.Fatalf("%s: replica state moved: merges %d, deltas_applied %d, watermarks %v", step, st.Merges, st.DeltasApplied, st.Watermarks)
		}
		ests, err := client.Query(ctx, items...)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ests {
			if e != 0 {
				t.Fatalf("%s: item %d estimates %v, want 0", step, items[i], e)
			}
		}
	}

	for _, bad := range nonFinite {
		body := AppendBatchColumns(nil, items, []float64{1, 2, bad})
		status, envelope := rawRequest(t, client, "POST", "/v1/update", contentTypeBatch, string(body), "")
		if status != 400 || !strings.Contains(envelope, `"invalid_argument"`) || !strings.Contains(envelope, "not finite") {
			t.Fatalf("SKB1 delta bits %#x: status %d, body %s", math.Float64bits(bad), status, envelope)
		}
	}
	requireUntouched("after SKB1 POSTs")

	// The JSON path never could carry one: NaN and Infinity are not JSON, and
	// a literal too large for float64 fails the unmarshal.
	for _, lit := range []string{"NaN", "Infinity", "-Infinity", "1e999", "-1e999"} {
		body := `{"updates":[{"item":10,"delta":1},{"item":11,"delta":` + lit + `}]}`
		status, envelope := rawRequest(t, client, "POST", "/v1/update", contentTypeJSON, body, "")
		if status != 400 || !strings.Contains(envelope, `"invalid_argument"`) {
			t.Fatalf("JSON delta %s: status %d, body %s", lit, status, envelope)
		}
	}
	requireUntouched("after JSON POSTs")

	for _, bad := range nonFinite {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		rd := newFrameReader(bufio.NewReader(conn), 0)
		mustWrite(t, conn, AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("poison")}))
		ack := mustRead(t, rd)
		if ack.Type != streamFrameAck || binary.BigEndian.Uint64(ack.Payload) != 0 {
			t.Fatalf("hello ack: type %d payload %x, want an ack at watermark 0 (a refused frame advanced the session)", ack.Type, ack.Payload)
		}
		mustWrite(t, conn, appendDataFrame(nil, 1, true, items, []float64{bad, 2, 3}))
		f := mustRead(t, rd)
		if f.Type != streamFrameError || !bytes.Contains(f.Payload, []byte("not finite")) {
			t.Fatalf("stream delta bits %#x: got frame type %d %q, want an error frame", math.Float64bits(bad), f.Type, f.Payload)
		}
		// The server closes only after the session is detached, so the next
		// round's hello cannot find it busy.
		if _, err := rd.next(); !errors.Is(err, io.EOF) {
			t.Fatalf("want a clean close after the error frame, got %v", err)
		}
		conn.Close()
	}
	requireUntouched("after stream frames")

	// A peer's sketch with one poisoned word: a counter or the total mass, in
	// a full tracker encoding or a bare Count-Min one (both of which /v1/merge
	// takes). The honest words around it are real mass the refusal must not
	// let in.
	honest := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	honest.UpdateBatch(items, []float64{5, 6, 7})
	tracker, err := honest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := honest.Backing().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const trackerLead = 14            // tracker header ahead of the embedded Count-Min
	const massAt, countersAt = 24, 32 // within a Count-Min encoding
	poisoned := func(enc []byte, at int, bad float64) []byte {
		out := append([]byte(nil), enc...)
		binary.BigEndian.PutUint64(out[at:], math.Float64bits(bad))
		return out
	}
	for _, bad := range nonFinite {
		for name, body := range map[string][]byte{
			"tracker counter":  poisoned(tracker, trackerLead+countersAt+8*17, bad),
			"tracker mass":     poisoned(tracker, trackerLead+massAt, bad),
			"CountMin counter": poisoned(bare, countersAt, bad),
			"CountMin mass":    poisoned(bare, massAt, bad),
		} {
			status, envelope := rawRequest(t, client, "POST", "/v1/merge", contentTypeSnapshot, string(body), "")
			if status != 400 || !strings.Contains(envelope, "not finite") {
				t.Fatalf("/v1/merge, %s bits %#x: status %d, body %s", name, math.Float64bits(bad), status, envelope)
			}
			if !strings.HasPrefix(name, "tracker") {
				continue // a delta frame's payload is always a tracker
			}
			frame := AppendDeltaFrame(nil, DeltaFrame{Sender: "poisoner", ToGen: 1, Payload: sketch.EncodeDelta(body)})
			status, envelope = rawRequest(t, client, "POST", "/v1/delta", contentTypeDelta, string(frame), "")
			if status != 400 || !strings.Contains(envelope, "not finite") {
				t.Fatalf("/v1/delta, %s bits %#x: status %d, body %s", name, math.Float64bits(bad), status, envelope)
			}
		}
	}
	requireUntouched("after poisoned merge bodies and delta frames")

	// The same frame without the poison is applied: the refusals above were
	// about the one word.
	frame := AppendDeltaFrame(nil, DeltaFrame{Sender: "poisoner", ToGen: 1, Payload: sketch.EncodeDelta(tracker)})
	if status, envelope := rawRequest(t, client, "POST", "/v1/delta", contentTypeDelta, string(frame), ""); status != 200 {
		t.Fatalf("honest delta frame: status %d, body %s", status, envelope)
	}
}
