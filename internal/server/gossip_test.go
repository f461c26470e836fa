package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// gossipNode is one daemon of an in-test mesh, served on a real loopback
// listener (ports are bound before the servers are built, so every peer URL
// is known up front — the same order of operations cmd/sketchd uses).
type gossipNode struct {
	srv    *Server
	client *Client
	url    string
}

// startMesh binds n loopback listeners, builds n Servers whose Peers lists
// name every other node, and serves them. Cleanup closes everything.
func startMesh(t *testing.T, n int, cfg Config) []*gossipNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*gossipNode, n)
	for i := range nodes {
		nodeCfg := cfg
		nodeCfg.NodeID = fmt.Sprintf("node-%d", i)
		for j, u := range urls {
			if j != i {
				nodeCfg.Peers = append(nodeCfg.Peers, u)
			}
		}
		srv, err := New(nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(listeners[i])
		nodes[i] = &gossipNode{srv: srv, client: NewClient(urls[i], nil), url: urls[i]}
		t.Cleanup(func() {
			hs.Close()
			closeChecked(t, srv)
		})
	}
	return nodes
}

// quiescentInvariants runs checkInvariants on a running daemon against its
// engine's current cut. Nothing may be ingesting: a batch dispatched but not
// yet counted in gen would read as a served epoch missing it.
func quiescentInvariants(srv *Server) error {
	srv.snapMu.Lock()
	defer srv.snapMu.Unlock()
	local, err := srv.localCut()
	if err != nil {
		return err
	}
	return srv.checkInvariants(local)
}

// closeChecked closes srv and fails the test on any error but an earlier
// Close: an invariant violation included.
func closeChecked(t testing.TB, srv *Server) {
	t.Helper()
	if err := srv.Close(); err != nil && !errors.Is(err, ErrServerClosed) {
		t.Errorf("closing the daemon: %v", err)
	}
}

// waitForMass polls a node until its total mass reaches want (gossip has
// quiesced for this node) or the deadline passes.
func waitForMass(t *testing.T, node *gossipNode, want float64) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats, err := node.client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalMass == want {
			return
		}
		if stats.TotalMass > want {
			t.Fatalf("node %s overshot: total mass %v, want %v — deltas double-counted", node.url, stats.TotalMass, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s did not converge: total mass %v, want %v", node.url, stats.TotalMass, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGossipTrioConvergence is the acceptance invariant for delta
// replication: three daemons in a full mesh ingest disjoint thirds of one
// stream, gossip deltas on a timer, and after quiescence every peer answers
// every sampled query exactly like the single-threaded reference sketch —
// deviation 0, proven under -race by the ordinary test run.
func TestGossipTrioConvergence(t *testing.T) {
	cfg := Config{
		Width: 1024, Depth: 4, K: 48, Seed: 19,
		Engine:      engine.Config{Workers: 2, BatchSize: 101},
		Producers:   2,
		GossipEvery: 15 * time.Millisecond,
	}
	nodes := startMesh(t, 3, cfg)
	ctx := context.Background()

	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	s := stream.Zipf(xrand.New(131), 1<<15, 45_000, 1.1)
	for _, u := range s.Updates {
		reference.Update(u.Item, float64(u.Delta))
	}

	// Node i ingests every third update, in chunks so gossip interleaves
	// with ingestion (deltas ship mid-stream, not just once at the end).
	const chunk = 900
	thirds := make([][]engine.Update, 3)
	for i, u := range s.Updates {
		thirds[i%3] = append(thirds[i%3], engine.Update{Item: u.Item, Delta: float64(u.Delta)})
	}
	for round := 0; round*chunk < len(thirds[0]); round++ {
		for i, node := range nodes {
			own := thirds[i]
			start := round * chunk
			if start >= len(own) {
				continue
			}
			end := min(start+chunk, len(own))
			if err := node.client.Update(ctx, own[start:end]); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, node := range nodes {
		waitForMass(t, node, reference.TotalMass())
	}

	// Every peer, every sampled counter — including the reference's heavy
	// hitters — must equal the single-threaded sketch exactly.
	items := make([]uint64, 0, 1<<11)
	for item := uint64(0); item < 1<<15; item += 19 {
		items = append(items, item)
	}
	for _, ic := range reference.TopK() {
		items = append(items, ic.Item)
	}
	for _, node := range nodes {
		for start := 0; start < len(items); start += 256 {
			end := min(start+256, len(items))
			estimates, err := node.client.Query(ctx, items[start:end]...)
			if err != nil {
				t.Fatal(err)
			}
			for i, item := range items[start:end] {
				if want := reference.Estimate(item); estimates[i] != want {
					t.Fatalf("node %s: estimate(%d) = %v, reference = %v (deviation %v)",
						node.url, item, estimates[i], want, estimates[i]-want)
				}
			}
		}
		stats, err := node.client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.DeltasApplied == 0 {
			t.Fatalf("node %s converged without applying any deltas — gossip did not run", node.url)
		}
		if len(stats.Watermarks) != 2 {
			t.Fatalf("node %s tracks %d sender watermarks, want 2", node.url, len(stats.Watermarks))
		}
		// Both of the node's links started from one shared empty baseline,
		// which nothing may have written to, and the node serves exactly its
		// engine cut ⊕ foreign.
		if err := quiescentInvariants(node.srv); err != nil {
			t.Fatalf("node %s: %v", node.url, err)
		}
	}
}

// TestGossipDeltaSmallerThanSnapshot: once a mesh has converged, an
// incremental delta frame must be far smaller than the full dense snapshot —
// the bytes argument for delta shipping, measured over real HTTP.
func TestGossipDeltaSmallerThanSnapshot(t *testing.T) {
	cfg := Config{
		Width: 4096, Depth: 4, K: 32, Seed: 23,
		GossipEvery: 10 * time.Millisecond,
	}
	nodes := startMesh(t, 2, cfg)
	ctx := context.Background()

	// A broad first wave touches many counters; the tail touches few.
	wave := make([]engine.Update, 0, 20_000)
	for i := 0; i < 20_000; i++ {
		wave = append(wave, engine.Update{Item: uint64(i % 3800), Delta: 1})
	}
	if err := nodes[0].client.Update(ctx, wave); err != nil {
		t.Fatal(err)
	}
	waitForMass(t, nodes[1], 20_000)

	// The receiver applies a frame before the sender hears the ack and
	// accounts for it, so the sender's own counters are what to wait on:
	// caught up means every local generation is acked and counted.
	senderCaughtUp := func() Stats {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			stats, err := nodes[0].client.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if p := stats.Peers[0]; p.LagGens == 0 && !p.Pending && p.FramesAcked > 0 {
				return stats
			}
			if time.Now().After(deadline) {
				t.Fatalf("sender never accounted for its acked frames: %+v", stats.Peers[0])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	before := senderCaughtUp()
	tail := []engine.Update{{Item: 1, Delta: 5}, {Item: 2, Delta: 7}}
	if err := nodes[0].client.Update(ctx, tail); err != nil {
		t.Fatal(err)
	}
	waitForMass(t, nodes[1], 20_012)
	after := senderCaughtUp()

	snapshot, err := nodes[0].client.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deltaBytes := after.Peers[0].BytesShipped - before.Peers[0].BytesShipped
	if deltaBytes <= 0 {
		t.Fatal("no delta frames shipped for the tail updates")
	}
	if deltaBytes >= int64(len(snapshot))/4 {
		t.Fatalf("incremental delta shipped %d bytes; full snapshot is %d — expected > 4x saving", deltaBytes, len(snapshot))
	}
}

// TestGossipSenderRestartResync: a daemon that restarts (same -node-id,
// fresh generation counter) must not have its post-restart deltas swallowed
// as duplicates by a peer whose watermark remembers the previous
// incarnation. The sender detects the stale watermark, resets it to zero,
// and re-ships its post-restart local mass — nothing lost, and the
// pre-restart mass the peer already holds is not double-counted.
func TestGossipSenderRestartResync(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 29}

	// The durable peer B, no peers of its own.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlB := "http://" + lnB.Addr().String()
	nodeB, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hsB := &http.Server{Handler: nodeB.Handler()}
	go hsB.Serve(lnB)
	t.Cleanup(func() { hsB.Close(); nodeB.Close() })
	clientB := NewClient(urlB, nil)

	startA := func() (*Server, *Client, func()) {
		cfgA := cfg
		cfgA.NodeID = "node-a" // same identity across both incarnations
		cfgA.Peers = []string{urlB}
		cfgA.GossipEvery = 10 * time.Millisecond
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		return srv, NewClient("http://"+ln.Addr().String(), nil), func() { hs.Close(); srv.Close() }
	}

	// First incarnation ships 100 mass on item 1, then dies.
	srvA1, clientA1, stopA1 := startA()
	if err := clientA1.Update(ctx, []engine.Update{{Item: 1, Delta: 100}}); err != nil {
		t.Fatal(err)
	}
	waitForMass(t, &gossipNode{client: clientB, url: urlB}, 100)
	_ = srvA1
	stopA1()

	// Second incarnation (fresh state, same node id) ingests new mass. Its
	// generation counter restarted, so without the resync its frames would
	// be acked as duplicates and the 50 would never reach B.
	_, clientA2, stopA2 := startA()
	defer stopA2()
	if err := clientA2.Update(ctx, []engine.Update{{Item: 2, Delta: 50}}); err != nil {
		t.Fatal(err)
	}
	waitForMass(t, &gossipNode{client: clientB, url: urlB}, 150)

	// B holds exactly one copy of each incarnation's mass.
	estimates, err := clientB.Query(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if estimates[0] != 100 || estimates[1] != 50 {
		t.Fatalf("B's estimates after sender restart: item1=%v item2=%v, want 100 and 50", estimates[0], estimates[1])
	}
}

// pushDeltaBytes posts raw bytes at /v1/delta and returns status and body.
func pushDeltaBytes(t *testing.T, client *Client, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(client.base+"/v1/delta", contentTypeDelta, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// deltaPayloadFor marshals a sketch and wraps it in the KindDelta envelope,
// the shape /v1/delta expects inside a frame.
func deltaPayloadFor(t *testing.T, sk interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return sketch.EncodeDelta(data)
}

// TestDeltaRejectsBadPayloads: every malformed or incompatible /v1/delta
// body must come back 4xx with a useful message and leave the counters
// untouched — truncated frames, foreign seeds, mismatched dimensions, junk
// envelopes and stale watermarks alike.
func TestDeltaRejectsBadPayloads(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 3}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()

	// Seed the daemon with known mass so "counters untouched" is checkable.
	if err := client.Update(ctx, []engine.Update{{Item: 9, Delta: 4}}); err != nil {
		t.Fatal(err)
	}

	goodDelta := func() []byte {
		cm := sketch.NewCountMin(xrand.New(cfg.Seed), cfg.Width, cfg.Depth)
		cm.Update(1, 1)
		return deltaPayloadFor(t, cm)
	}()
	frame := func(f DeltaFrame) []byte { return AppendDeltaFrame(nil, f) }
	okFrame := frame(DeltaFrame{Sender: "peer", FromGen: 0, ToGen: 5, Payload: goodDelta})

	cases := []struct {
		name       string
		body       []byte
		wantStatus int
		wantWord   string
	}{
		{"empty body", nil, http.StatusBadRequest, "truncated delta frame"},
		{"garbage", []byte("hello sketchd"), http.StatusBadRequest, "magic"},
		{"truncated frame", okFrame[:len(okFrame)-7], http.StatusBadRequest, "claims"},
		{"truncated header", okFrame[:6], http.StatusBadRequest, "truncated"},
		{"empty sender", frame(DeltaFrame{Sender: "", FromGen: 0, ToGen: 5, Payload: goodDelta}), http.StatusBadRequest, "sender"},
		{"backwards generations", frame(DeltaFrame{Sender: "peer", FromGen: 9, ToGen: 5, Payload: goodDelta}), http.StatusBadRequest, "backwards"},
		{"missing payload", frame(DeltaFrame{Sender: "peer", FromGen: 0, ToGen: 5}), http.StatusBadRequest, "no payload"},
		{"payload not an envelope", frame(DeltaFrame{Sender: "peer", FromGen: 0, ToGen: 5,
			Payload: []byte("not a delta envelope")}), http.StatusBadRequest, "magic"},
		{"foreign seed", frame(DeltaFrame{Sender: "peer", FromGen: 0, ToGen: 5,
			Payload: deltaPayloadFor(t, sketch.NewCountMin(xrand.New(cfg.Seed+1), cfg.Width, cfg.Depth))}),
			http.StatusBadRequest, "hash mismatch"},
		{"mismatched dims", frame(DeltaFrame{Sender: "peer", FromGen: 0, ToGen: 5,
			Payload: deltaPayloadFor(t, sketch.NewCountMin(xrand.New(cfg.Seed), 64, 2))}),
			http.StatusBadRequest, "dimension mismatch"},
		{"wrong inner kind", frame(DeltaFrame{Sender: "peer", FromGen: 0, ToGen: 5,
			Payload: deltaPayloadFor(t, sketch.NewBloomFilter(xrand.New(1), 256, 3))}),
			http.StatusBadRequest, "cannot merge"},
	}
	for _, tc := range cases {
		status, body := pushDeltaBytes(t, client, tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: HTTP %d, want %d (body %q)", tc.name, status, tc.wantStatus, body)
		}
		if !strings.Contains(body, tc.wantWord) {
			t.Errorf("%s: error %q does not mention %q", tc.name, body, tc.wantWord)
		}
	}

	// Counters untouched by all of the above.
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != 4 {
		t.Fatalf("total mass %v after rejected deltas, want 4 (counters were touched)", stats.TotalMass)
	}
	if stats.DeltasApplied != 0 {
		t.Fatalf("%d deltas recorded as applied", stats.DeltasApplied)
	}

	// The watermark protocol itself: apply, retry idempotently, reject a gap.
	resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "peer", FromGen: 0, ToGen: 5, Payload: goodDelta})
	if err != nil || !resp.Applied || resp.Watermark != 5 {
		t.Fatalf("first frame: resp %+v, err %v; want applied at watermark 5", resp, err)
	}
	resp, err = client.PushDelta(ctx, DeltaFrame{Sender: "peer", FromGen: 0, ToGen: 5, Payload: goodDelta})
	if err != nil || resp.Applied || resp.Watermark != 5 {
		t.Fatalf("retried frame: resp %+v, err %v; want idempotent no-op at watermark 5", resp, err)
	}
	_, err = client.PushDelta(ctx, DeltaFrame{Sender: "peer", FromGen: 3, ToGen: 9, Payload: goodDelta})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("gapped frame: err %v, want HTTP 409", err)
	}
	if !strings.Contains(apiErr.Message, "watermark") {
		t.Fatalf("409 message %q does not mention the watermark", apiErr.Message)
	}

	// Exactly one application of the 1-mass delta plus the original 4.
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != 5 {
		t.Fatalf("total mass %v, want 5 (the frame must apply exactly once)", stats.TotalMass)
	}
	if stats.DeltasApplied != 1 || stats.DeltasDuplicate != 1 || stats.DeltasRejected < int64(len(cases))+1 {
		t.Fatalf("delta counters off: %+v", stats)
	}
	if stats.Watermarks["peer"] != 5 {
		t.Fatalf("watermark for peer = %d, want 5", stats.Watermarks["peer"])
	}

	// A reset frame re-aligns the watermark without touching counters.
	resp, err = client.PushDelta(ctx, DeltaFrame{Sender: "peer", FromGen: 42, ToGen: 42, Reset: true})
	if err != nil || resp.Applied || resp.Watermark != 42 {
		t.Fatalf("reset frame: resp %+v, err %v; want watermark 42, nothing applied", resp, err)
	}
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != 5 {
		t.Fatalf("total mass %v after reset frame, want 5", stats.TotalMass)
	}
}

// TestGossipExactOverEveryCounterWord: the envelope spells integer counter
// differences as integer tokens and everything else as literals. A two-node
// mesh ships one window per kind of counter word — small integers,
// fractions, negatives, 2^53+2, ±1e300 — and a window of −0 deltas, and the
// receiver ends up answering exactly like the single-threaded reference, bit
// for bit. A frame carrying the retired kind-7 envelope is then refused with
// nothing touched.
func TestGossipExactOverEveryCounterWord(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 41, Engine: engine.Config{Workers: 1}}
	recvCfg := cfg
	recvCfg.NodeID = "receiver"
	_, receiver := testDaemon(t, recvCfg)
	cfg.NodeID, cfg.Peers = "feeder", []string{receiver.base}
	cfg.GossipEvery = time.Hour // the test is the ticker
	feeder, feederClient := testDaemon(t, cfg)

	newSketch := func() *sketch.HeavyHitterTracker {
		return sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	}
	// reference takes every window in order; shipped sums the differences
	// between the reference's successive states, as the receiver will. The
	// windows are chosen so those float differences are exact, which shipped
	// equal to reference proves before the daemons are asked.
	reference, shipped, prev := newSketch(), newSketch(), newSketch()
	windows := []func(i int) float64{
		func(i int) float64 { return float64(1 + i%9) },
		func(i int) float64 { return float64(i%13)/8 - 0.75 },
		func(i int) float64 { return -float64(1 + i%700) },
		func(int) float64 { return 1<<53 + 2 },
		func(i int) float64 { return math.Copysign(1e300, float64(i%2)-0.5) },
		func(int) float64 { return math.Copysign(0, -1) },
	}
	for w, delta := range windows {
		items, deltas := make([]uint64, 64), make([]float64, 64)
		for i := range items {
			items[i], deltas[i] = uint64(w*64+i), delta(i)
		}
		reference.UpdateBatch(items, deltas)
		diff := reference.Copy()
		if err := diff.Sub(prev); err != nil {
			t.Fatal(err)
		}
		if err := shipped.Merge(diff); err != nil {
			t.Fatal(err)
		}
		prev = reference.Copy()

		if err := feederClient.UpdateColumns(ctx, items, deltas); err != nil {
			t.Fatal(err)
		}
		feeder.gossipPush(ctx, true)
	}
	keys := denseKeys()
	answers := func(client *Client) []uint64 {
		t.Helper()
		got, err := client.QueryBatch(ctx, keys)
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]uint64, len(got))
		for i, v := range got {
			bits[i] = math.Float64bits(v)
		}
		return bits
	}
	for _, key := range keys {
		if a, b := math.Float64bits(shipped.Estimate(key)), math.Float64bits(reference.Estimate(key)); a != b {
			t.Fatalf("the windows' differences do not sum back exactly at key %d (%#x vs %#x): pick other windows", key, a, b)
		}
	}
	got := answers(receiver)
	for i, key := range keys {
		if want := math.Float64bits(reference.Estimate(key)); got[i] != want {
			t.Fatalf("receiver: estimate(%d) has bits %#x, the single-threaded reference %#x", key, got[i], want)
		}
	}
	before, err := receiver.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.DeltasApplied != int64(len(windows)) {
		t.Fatalf("receiver applied %d frames, want one per window (%d)", before.DeltasApplied, len(windows))
	}

	// The retired envelope, as an older release would ship it: one literal
	// holding the whole inner encoding.
	inner := mustEncode(t, newSketch())
	retired := binary.BigEndian.AppendUint32([]byte("SKC1\x01\x07"), uint32(len(inner)))
	retired = append(binary.AppendUvarint(binary.AppendUvarint(retired, 0), uint64(len(inner))), inner...)
	mark := before.Watermarks["feeder"]
	status, body := pushDeltaBytes(t, receiver, AppendDeltaFrame(nil, DeltaFrame{Sender: "feeder", FromGen: mark, ToGen: mark + 1, Payload: retired}))
	if status != http.StatusBadRequest || !strings.Contains(body, "kind 7") {
		t.Fatalf("kind-7 envelope: HTTP %d %q, want 400 naming kind 7", status, body)
	}
	after, err := receiver.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.DeltasRejected != before.DeltasRejected+1 || after.DeltasApplied != before.DeltasApplied ||
		after.Watermarks["feeder"] != mark || after.TotalMass != before.TotalMass {
		t.Fatalf("kind-7 envelope moved the receiver: rejected %d → %d, applied %d → %d, watermark %d → %d, mass %v → %v",
			before.DeltasRejected, after.DeltasRejected, before.DeltasApplied, after.DeltasApplied,
			mark, after.Watermarks["feeder"], before.TotalMass, after.TotalMass)
	}
	if !slices.Equal(answers(receiver), got) {
		t.Fatal("kind-7 envelope changed the receiver's answers")
	}
}

// TestDeltaFrameRoundTrip: the frame codec in isolation.
func TestDeltaFrameRoundTrip(t *testing.T) {
	in := DeltaFrame{Sender: "node-a", FromGen: 7, ToGen: 19, Payload: []byte{1, 2, 3}}
	out, err := DecodeDeltaFrame(AppendDeltaFrame(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Sender != in.Sender || out.FromGen != in.FromGen || out.ToGen != in.ToGen ||
		out.Reset != in.Reset || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	reset := DeltaFrame{Sender: "node-a", FromGen: 19, ToGen: 19, Reset: true}
	out, err = DecodeDeltaFrame(AppendDeltaFrame(nil, reset))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reset || out.ToGen != 19 || len(out.Payload) != 0 {
		t.Fatalf("reset round trip: %+v", out)
	}
}

// TestGossipWatermarkPersistence: a receiver persists its per-sender
// watermarks with its counters, in the one recovery file, and reloads them on
// restart, so a sender
// can continue its delta sequence where it left off — no 409, no reset
// resync, no double-counting when it retries the last pre-restart frame.
func TestGossipWatermarkPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 6, SnapshotDir: dir}
	ctx := context.Background()

	mkDelta := func(item uint64, mass float64) []byte {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		sk.Update(item, mass)
		return deltaPayloadFor(t, sk)
	}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	client1 := NewClient(hs1.URL, hs1.Client())
	resp, err := client1.PushDelta(ctx, DeltaFrame{Sender: "origin", FromGen: 0, ToGen: 5, Payload: mkDelta(1, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || resp.Watermark != 5 {
		t.Fatalf("first frame: %+v, want applied with watermark 5", resp)
	}
	hs1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	requireOneRecoveryFile(t, dir)

	// Restart from the same directory: the watermark must come back with the
	// counters.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	defer srv2.Close()
	client2 := NewClient(hs2.URL, hs2.Client())

	stats, err := client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Watermarks["origin"] != 5 {
		t.Fatalf("restarted watermark for origin = %d, want 5", stats.Watermarks["origin"])
	}

	// A retry of the pre-restart frame is absorbed idempotently...
	resp, err = client2.PushDelta(ctx, DeltaFrame{Sender: "origin", FromGen: 0, ToGen: 5, Payload: mkDelta(1, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied {
		t.Fatal("pre-restart frame was re-applied after restart (double-count)")
	}
	// ...and the next frame in sequence applies with no 409 resync.
	resp, err = client2.PushDelta(ctx, DeltaFrame{Sender: "origin", FromGen: 5, ToGen: 9, Payload: mkDelta(2, 50)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || resp.Watermark != 9 {
		t.Fatalf("post-restart frame: %+v, want applied with watermark 9", resp)
	}

	estimates, err := client2.Query(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if estimates[0] != 100 || estimates[1] != 50 {
		t.Fatalf("estimates after restart: item1=%v item2=%v, want 100 and 50", estimates[0], estimates[1])
	}
}

// deltaRecorder fronts a daemon: it keeps every /v1/delta body posted at it
// and, while failing is set, answers 503 in the daemon's place.
type deltaRecorder struct {
	next    http.Handler
	failing atomic.Bool
	mu      sync.Mutex
	bodies  [][]byte
}

func (d *deltaRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/delta" {
		body, _ := io.ReadAll(r.Body)
		d.mu.Lock()
		d.bodies = append(d.bodies, body)
		d.mu.Unlock()
		if d.failing.Load() {
			http.Error(w, "down for the test", http.StatusServiceUnavailable)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	d.next.ServeHTTP(w, r)
}

func (d *deltaRecorder) frames() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]byte(nil), d.bodies...)
}

// TestGossipSharesOneFramePerBaseline drives a sender's ticks by hand against
// two recorded peers. Peers on one baseline are posted the same bytes, encoded
// once; a peer that missed its acks is retried verbatim and then shipped its
// own window from the older baseline; and everyone ends up holding exactly
// the reference counters.
func TestGossipSharesOneFramePerBaseline(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 41}
	ctx := context.Background()
	var recs [2]*deltaRecorder
	var clients [2]*Client
	cfgA := cfg
	for i := range recs {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = &deltaRecorder{next: srv.Handler()}
		hs := httptest.NewServer(recs[i])
		t.Cleanup(func() { hs.Close(); srv.Close() })
		clients[i] = NewClient(hs.URL, hs.Client())
		cfgA.Peers = append(cfgA.Peers, hs.URL)
	}
	cfgA.NodeID = "node-a"
	cfgA.GossipEvery = time.Hour // the test is the ticker
	a, clientA := testDaemon(t, cfgA)

	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	r := xrand.New(7)
	wave := func() {
		t.Helper()
		updates := make([]engine.Update, 300)
		for i := range updates {
			updates[i] = engine.Update{Item: uint64(r.Intn(2000)), Delta: float64(1 + r.Intn(5))}
			reference.Update(updates[i].Item, updates[i].Delta)
		}
		if err := clientA.Update(ctx, updates); err != nil {
			t.Fatal(err)
		}
		a.gossipPush(ctx, true) // past the backoff a refused frame earns
	}
	b, c := recs[0], recs[1]

	wave() // tick 1: both peers on the empty baseline
	wave() // tick 2: both on tick 1's cut
	c.failing.Store(true)
	wave() // tick 3: c's frame goes unacked and is kept
	wave() // tick 4: c is retried (and refused again); b moves on
	c.failing.Store(false)
	wave() // tick 5: c is retried, acked, then shipped ticks 4-5 in one frame

	fb, fc := b.frames(), c.frames()
	if len(fb) != 5 || len(fc) != 6 {
		t.Fatalf("b was posted %d frames and c %d, want 5 and 6", len(fb), len(fc))
	}
	for tick := 0; tick < 3; tick++ {
		if !bytes.Equal(fb[tick], fc[tick]) {
			t.Errorf("tick %d: peers on one baseline were posted different bytes", tick+1)
		}
	}
	if !bytes.Equal(fc[3], fc[2]) || !bytes.Equal(fc[4], fc[2]) {
		t.Error("the unacked frame was not retried verbatim")
	}
	own, err := DecodeDeltaFrame(fc[5])
	if err != nil {
		t.Fatal(err)
	}
	missed, _ := DecodeDeltaFrame(fc[2])
	latest, _ := DecodeDeltaFrame(fb[4])
	if own.FromGen != missed.ToGen || own.ToGen != latest.ToGen || latest.FromGen == own.FromGen {
		t.Errorf("c's catch-up frame covers (%d, %d]; want from its retried frame's %d to b's latest %d, a window of its own (b's starts at %d)",
			own.FromGen, own.ToGen, missed.ToGen, latest.ToGen, latest.FromGen)
	}

	items := make([]uint64, 2000)
	for i := range items {
		items[i] = uint64(i)
	}
	for i, client := range clients {
		stats, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalMass != reference.TotalMass() || stats.DeltasApplied != 5-int64(i) || stats.DeltasDuplicate != 0 {
			t.Fatalf("peer %d: total mass %v (want %v), %d deltas applied, %d duplicate", i, stats.TotalMass, reference.TotalMass(), stats.DeltasApplied, stats.DeltasDuplicate)
		}
		estimates, err := client.QueryBatch(ctx, items)
		if err != nil {
			t.Fatal(err)
		}
		for j, item := range items {
			if want := reference.Estimate(item); estimates[j] != want {
				t.Fatalf("peer %d: estimate(%d) = %v, reference %v", i, item, estimates[j], want)
			}
		}
	}
}

// TestEncodeFrameMatchesSeedChain: the frame built in place around the
// streamed payload is, byte for byte, the frame the replicator used to
// assemble from a copied, subtracted, densely marshalled and then compressed
// difference sketch — for a window delta and for a replace frame.
func TestEncodeFrameMatchesSeedChain(t *testing.T) {
	cfg := Config{Width: 256, Depth: 3, K: 8, Seed: 5, NodeID: "node-a"}
	s, _ := testDaemon(t, cfg)
	local := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	for i := uint64(0); i < 500; i++ {
		local.Update(i%97, float64(1+i%3))
	}
	base := local.Copy()
	for i := uint64(0); i < 40; i++ {
		local.Update(i%11, 2)
	}
	for name, tc := range map[string]struct {
		frame DeltaFrame
		base  *sketch.HeavyHitterTracker
	}{
		"window":  {DeltaFrame{Sender: cfg.NodeID, FromGen: 3, ToGen: 9}, base},
		"replace": {DeltaFrame{Sender: cfg.NodeID, ToGen: 9, Replace: true}, s.proto},
	} {
		got, err := s.encodeFrame(tc.frame, local, tc.base)
		if err != nil {
			t.Fatal(err)
		}
		// A window shipped the subtracted copy; a replace shipped local as
		// it stood.
		delta := local
		if !tc.frame.Replace {
			delta = local.Copy()
			if err := delta.Sub(tc.base); err != nil {
				t.Fatal(err)
			}
		}
		want := tc.frame
		want.Payload = deltaPayloadFor(t, delta)
		if !bytes.Equal(got, AppendDeltaFrame(nil, want)) {
			t.Errorf("%s frame differs from the seed chain's", name)
		}
	}

	// One tick's cut encodes a baseline once, however many peers are on it.
	cut := &gossipCut{local: local, gen: 9}
	first, err := s.deltaFrame(cut, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := s.deltaFrame(cut, base, 3)
	other, _ := s.deltaFrame(cut, s.proto, 0)
	if &first[0] != &again[0] || &first[0] == &other[0] || len(cut.frames) != 2 {
		t.Errorf("a cut asked for baselines (base, base, empty) holds %d frames; want 2, the first one shared", len(cut.frames))
	}
}

// TestPeerLagSeconds: /v1/stats reports per peer how long it has been behind
// — the seconds since a gossip tick first found lag_gens > 0, 0 once it is
// caught up. A write after an idle spell is not counted from the last ack,
// which is the whole spell ago: its entry stays well under the spell. Then
// the peer's server is stopped: the feeder's entry grows past one gossip
// interval, and after the peer returns on the same address and acks the
// feeder's frames, it reads 0.
func TestPeerLagSeconds(t *testing.T) {
	cfg := Config{Width: 256, Depth: 4, K: 8, Seed: 83}
	peer, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, peer) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serve := func(ln net.Listener) *http.Server {
		hs := &http.Server{Handler: peer.Handler()}
		go hs.Serve(ln)
		return hs
	}
	hs := serve(ln)

	const every = 20 * time.Millisecond
	feedCfg := cfg
	feedCfg.Peers, feedCfg.GossipEvery, feedCfg.GossipBackoffMax = []string{addr}, every, 2*every
	_, feeder := testDaemon(t, feedCfg)
	ctx := context.Background()
	post := func() {
		t.Helper()
		if err := feeder.Update(ctx, []engine.Update{{Item: 1, Delta: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	// lag polls the feeder until its peer entry satisfies done.
	lag := func(what string, done func(PeerStat) bool) PeerStat {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			stats, err := feeder.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if p := stats.Peers[0]; done(p) {
				return p
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the peer entry never got there: %+v", what, stats.Peers[0])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	caughtUp := func(p PeerStat) bool { return p.LagGens == 0 && !p.Pending }

	post()
	if p := lag("first ack", caughtUp); p.LagSeconds != 0 {
		t.Fatalf("a caught-up peer reports lag_seconds %v, want 0", p.LagSeconds)
	}
	const idle = 25 * every
	time.Sleep(idle)
	post()
	lag("the write after an idle spell", func(p PeerStat) bool {
		if p.LagSeconds >= idle.Seconds()/2 {
			t.Fatalf("after an idle spell of %v a fresh write reports lag_seconds %v", idle, p.LagSeconds)
		}
		return caughtUp(p)
	})
	hs.Close()
	post()
	behind := lag("peer stopped", func(p PeerStat) bool { return p.LagGens > 0 && p.LagSeconds > every.Seconds() })
	if later := lag("peer still stopped", func(p PeerStat) bool { return p.LagSeconds > behind.LagSeconds }); later.LagGens == 0 {
		t.Fatalf("lag_seconds grew on a peer that is caught up: %+v", later)
	}

	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	hs = serve(ln)
	t.Cleanup(func() { hs.Close() })
	if p := lag("peer back", caughtUp); p.LagSeconds != 0 {
		t.Fatalf("a peer that acked the feeder's frames reports lag_seconds %v, want 0", p.LagSeconds)
	}
}
