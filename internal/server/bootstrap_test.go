package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// TestBootstrapResponseCodec: SKP1 round-trips exactly, re-encoding a decoded
// payload is a fixed point (canonical sorted sections), and every forged or
// truncated header — the previous version's included — is refused before any
// large allocation.
func TestBootstrapResponseCodec(t *testing.T) {
	payload := BootstrapPayload{
		NodeID:     "node-a",
		LocalGen:   42,
		Watermarks: map[string]uint64{"node-a": 42, "node-b": 7, "node-c": 0},
		Hearsay:    []string{"node-c", "node-b"},
		Untracked:  true,
		Snapshot:   []byte("snapshot-bytes-stand-in"),
		Senders: map[string][]byte{
			"node-a": []byte("tracker-a"),
			"node-b": []byte("tracker-b"),
			"node-c": {},
		},
	}
	enc, err := AppendBootstrapResponse(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBootstrapResponse(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NodeID != payload.NodeID || dec.LocalGen != payload.LocalGen {
		t.Fatalf("identity round trip: got %q gen %d", dec.NodeID, dec.LocalGen)
	}
	if len(dec.Watermarks) != 3 || dec.Watermarks["node-b"] != 7 {
		t.Fatalf("watermark round trip: %v", dec.Watermarks)
	}
	if !bytes.Equal(dec.Snapshot, payload.Snapshot) {
		t.Fatal("snapshot bytes changed in round trip")
	}
	if len(dec.Senders) != 3 || !bytes.Equal(dec.Senders["node-b"], []byte("tracker-b")) || len(dec.Senders["node-c"]) != 0 {
		t.Fatalf("sender sections round trip: %v", dec.Senders)
	}
	if !dec.Untracked || !slices.Equal(dec.Hearsay, []string{"node-b", "node-c"}) {
		t.Fatalf("flags and hearsay round trip: untracked %v, hearsay %v", dec.Untracked, dec.Hearsay)
	}
	reenc, err := AppendBootstrapResponse(nil, *dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Fatal("re-encoding a decoded payload is not a fixed point")
	}

	corrupt := func(mutate func([]byte) []byte) []byte {
		c := mutate(append([]byte(nil), enc...))
		return c
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", enc[:6]},
		{"truncated body", enc[:len(enc)-9]},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", corrupt(func(b []byte) []byte { b[4] = 99; return b })},
		{"bad flags", corrupt(func(b []byte) []byte { b[5] = 3; return b })},
		{"flipped payload byte", corrupt(func(b []byte) []byte { b[len(b)-10] ^= 0x40; return b })},
		{"flipped crc", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })},
	}
	for _, tc := range cases {
		if _, err := DecodeBootstrapResponse(tc.data, 0); err == nil {
			t.Errorf("%s: decode accepted corrupt input", tc.name)
		}
	}
	v1 := corrupt(func(b []byte) []byte { b[4] = 1; return b })
	if _, err := DecodeBootstrapResponse(v1, 0); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version 1: %v, want an error naming the version", err)
	}
	// Hearsay must be a watermark, and the encoder says so before it writes.
	if _, err := AppendBootstrapResponse(nil, BootstrapPayload{NodeID: "x", Hearsay: []string{"y"}}); err == nil {
		t.Error("encoded hearsay without a watermark")
	}
	// A section cap below the snapshot size must refuse the declared length.
	if _, err := DecodeBootstrapResponse(enc, 4); err == nil {
		t.Error("section cap was not enforced")
	}
}

// waitForServing polls a node's stats until its bootstrap completes ("done")
// or fails the test on degradation or timeout.
func waitForServing(t *testing.T, client *Client) Stats {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats, err := client.Stats(ctx)
		if err == nil {
			switch stats.Bootstrap {
			case "done":
				return stats
			case "degraded":
				t.Fatal("bootstrap degraded instead of completing")
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("bootstrap did not complete (last stats error: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBootstrapDuringLiveGossip: a blank node joins a two-node mesh that is
// ingesting and gossiping continuously, pulls its state transfer from one
// peer, then ingests its own share of the stream — and the whole mesh still
// converges to exactly the reference sketch: no lost mass, no doubled mass
// (waitForMass fails on overshoot), even though the joiner's watermarks were
// installed by the transfer rather than earned frame by frame.
func TestBootstrapDuringLiveGossip(t *testing.T) {
	cfg := Config{
		Width: 1024, Depth: 4, K: 48, Seed: 19,
		Engine:           engine.Config{Workers: 2, BatchSize: 101},
		Producers:        2,
		GossipEvery:      10 * time.Millisecond,
		GossipBackoffMax: 40 * time.Millisecond,
	}
	ctx := context.Background()

	listeners := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	start := func(i int, mutate func(*Config)) *Client {
		nodeCfg := cfg
		nodeCfg.NodeID = fmt.Sprintf("node-%d", i)
		for j, u := range urls {
			if j != i {
				nodeCfg.Peers = append(nodeCfg.Peers, u)
			}
		}
		if mutate != nil {
			mutate(&nodeCfg)
		}
		srv, err := New(nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(listeners[i])
		t.Cleanup(func() { hs.Close(); srv.Close() })
		return NewClient(urls[i], nil)
	}

	clients := make([]*Client, 3)
	clients[0] = start(0, nil)
	clients[1] = start(1, nil)

	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	s := stream.Zipf(xrand.New(211), 1<<15, 36_000, 1.1)
	for _, u := range s.Updates {
		reference.Update(u.Item, float64(u.Delta))
	}
	slices := make([][]engine.Update, 3)
	for i, u := range s.Updates {
		slices[i%3] = append(slices[i%3], engine.Update{Item: u.Item, Delta: float64(u.Delta)})
	}
	feed := func(i, from, to int) {
		t.Helper()
		own := slices[i]
		for start := from; start < to && start < len(own); start += 600 {
			end := min(start+600, len(own))
			if err := clients[i].Update(ctx, own[start:end]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// First half on A and B only — live gossip traffic for the joiner to
	// bootstrap into the middle of.
	half := len(slices[0]) / 2
	feed(0, 0, half)
	feed(1, 0, half)

	// The joiner pulls its transfer from node 0 while both peers keep
	// pushing deltas (to it too — its listener was failing until now, so the
	// peers arrive with pending frames and backoff state).
	clients[2] = start(2, func(c *Config) { c.BootstrapFrom = []string{urls[0]} })
	joined := waitForServing(t, clients[2])
	if joined.BootstrapSource != urls[0] {
		t.Fatalf("bootstrap source = %q, want %q", joined.BootstrapSource, urls[0])
	}

	// Second half everywhere, plus the joiner's own full slice.
	feed(0, half, len(slices[0]))
	feed(1, half, len(slices[1]))
	feed(2, 0, len(slices[2]))

	for i, client := range clients {
		waitForMass(t, &gossipNode{client: client, url: urls[i]}, reference.TotalMass())
	}
	items := make([]uint64, 0, 16)
	for _, hh := range reference.TopK() {
		items = append(items, hh.Item)
		if len(items) == 16 {
			break
		}
	}
	want, err := clients[0].Query(ctx, items...)
	if err != nil {
		t.Fatal(err)
	}
	for i, client := range clients {
		got, err := client.Query(ctx, items...)
		if err != nil {
			t.Fatal(err)
		}
		for j := range items {
			if got[j] != reference.Estimate(items[j]) || got[j] != want[j] {
				t.Fatalf("node %d item %d: estimate %v, reference %v, node0 %v",
					i, items[j], got[j], reference.Estimate(items[j]), want[j])
			}
		}
	}
}

// TestBootstrapSourceDiesMidTransfer: sources that serve a truncated (CRC-
// failing) transfer or cut the connection outright must not poison the
// joiner — it retries down the source list, absorbs nothing until a decode
// succeeds end to end, and lands with exactly the healthy source's state.
func TestBootstrapSourceDiesMidTransfer(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 23}
	ctx := context.Background()

	source, sourceClient := testDaemon(t, cfg)
	if err := sourceClient.Update(ctx, []engine.Update{{Item: 1, Delta: 100}, {Item: 2, Delta: 50}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sourceClient.PushDelta(ctx, DeltaFrame{
		Sender: "origin", FromGen: 0, ToGen: 5,
		Payload: func() []byte {
			sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
			sk.Update(3, 7)
			return deltaPayloadFor(t, sk)
		}(),
	}); err != nil {
		t.Fatal(err)
	}
	_ = source

	// A source that answers 200 with a transfer whose tail is cut off: the
	// CRC check must reject it.
	truncating := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		full, err := AppendBootstrapResponse(nil, BootstrapPayload{
			NodeID: "liar", LocalGen: 9, Snapshot: []byte("partial"),
		})
		if err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Type", contentTypeBootstrap)
		w.Write(full[:len(full)-3])
	}))
	t.Cleanup(truncating.Close)
	// A source whose connection dies mid-transfer.
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(dying.Close)

	joinCfg := cfg
	joinCfg.NodeID = "joiner"
	joinCfg.BootstrapFrom = []string{truncating.URL, dying.URL, sourceClient.base}
	joinCfg.BootstrapRetryWait = 10 * time.Millisecond
	joiner, joinerClient := testDaemon(t, joinCfg)
	_ = joiner

	stats := waitForServing(t, joinerClient)
	if stats.BootstrapSource != sourceClient.base {
		t.Fatalf("bootstrap source = %q, want the healthy daemon %q", stats.BootstrapSource, sourceClient.base)
	}
	if stats.BootstrapFailures < 2 {
		t.Fatalf("bootstrap_failures = %d, want >= 2 (both broken sources tried)", stats.BootstrapFailures)
	}
	srcStats, err := sourceClient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != srcStats.TotalMass {
		t.Fatalf("joiner mass %v != source mass %v", stats.TotalMass, srcStats.TotalMass)
	}
	got, err := joinerClient.Query(ctx, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[1] != 50 || got[2] != 7 {
		t.Fatalf("joiner estimates %v, want [100 50 7]", got)
	}
	if stats.Watermarks["origin"] != 5 {
		t.Fatalf("joiner watermark for origin = %d, want 5 (installed from transfer)", stats.Watermarks["origin"])
	}
}

// TestBootstrapGatesAPIAndDegrades: while the transfer is pending every
// /v1/* endpoint except healthz and stats answers 503 bootstrap_pending; a
// node whose every source stays broken eventually degrades to serving empty
// state rather than staying down forever.
func TestBootstrapGatesAPIAndDegrades(t *testing.T) {
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		http.Error(w, "no transfer for you", http.StatusInternalServerError)
	}))
	t.Cleanup(func() { close(release); stuck.Close() })

	cfg := Config{
		Width: 512, Depth: 4, K: 16, Seed: 31,
		NodeID:             "gated",
		BootstrapFrom:      []string{stuck.URL},
		BootstrapAttempts:  2,
		BootstrapRetryWait: 10 * time.Millisecond,
	}
	srv, client := testDaemon(t, cfg)
	_ = srv
	ctx := context.Background()

	// Gated while pending: reads and writes 503, liveness and stats open.
	res, err := http.Get(client.base + "/v1/query?item=1")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while bootstrapping: HTTP %d, want 503", res.StatusCode)
	}
	if err := client.Update(ctx, []engine.Update{{Item: 1, Delta: 1}}); err == nil {
		t.Fatal("update accepted while bootstrapping")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Detail != "bootstrap_pending" {
			t.Fatalf("update while bootstrapping: %v, want 503 with detail bootstrap_pending", err)
		}
	}
	res, err = http.Get(client.base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz while bootstrapping: HTTP %d, want 200", res.StatusCode)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bootstrap != "pending" {
		t.Fatalf("stats.bootstrap = %q while pending", stats.Bootstrap)
	}

	// Let both rounds fail; the node must open up empty rather than hang.
	release <- struct{}{}
	release <- struct{}{}
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats, err = client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Bootstrap == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never degraded (bootstrap=%q, failures=%d)", stats.Bootstrap, stats.BootstrapFailures)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats.BootstrapFailures != 2 {
		t.Fatalf("bootstrap_failures = %d, want 2", stats.BootstrapFailures)
	}
	if err := client.Update(ctx, []engine.Update{{Item: 1, Delta: 3}}); err != nil {
		t.Fatalf("update after degradation: %v", err)
	}
	got, err := client.Query(ctx, 1)
	if err != nil {
		t.Fatalf("query after degradation: %v", err)
	}
	if got[0] != 3 {
		t.Fatalf("estimate after degradation = %v, want 3 (empty start plus the update)", got[0])
	}
}

// TestReplaceFrameHealsDivergence: the replace-frame protocol end to end on
// one receiver — a tracked sender whose window diverged gets the replace
// offer in the 409, the replace frame swaps its contribution in exactly
// (no loss, no double count), retrying it is a no-op, and a receiver that
// holds the sender's mass untracked (recovered from a file that says so)
// refuses it.
func TestReplaceFrameHealsDivergence(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 37}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()

	mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		for i := 0; i+1 < len(pairs); i += 2 {
			sk.Update(uint64(pairs[i]), pairs[i+1])
		}
		return sk
	}

	resp, err := client.PushDelta(ctx, DeltaFrame{
		Sender: "x", FromGen: 0, ToGen: 5, Payload: deltaPayloadFor(t, mkSketch(1, 100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || !resp.CanReplace {
		t.Fatalf("first frame: %+v, want applied with can_replace", resp)
	}

	// A frame whose window does not start at the mark: refused with the
	// replace offer, counters untouched.
	_, err = client.PushDelta(ctx, DeltaFrame{
		Sender: "x", FromGen: 7, ToGen: 9, Payload: deltaPayloadFor(t, mkSketch(2, 50)),
	})
	if !isWatermarkConflict(err) {
		t.Fatalf("diverged frame: %v, want 409", err)
	}
	if !conflictAllowsReplace(err) {
		t.Fatalf("diverged frame 409 lacks the replace offer: %v", err)
	}

	// The replace frame carries the sender's entire local sketch; the
	// receiver nets out what it already holds.
	full := mkSketch(1, 100, 2, 50)
	resp, err = client.PushDelta(ctx, DeltaFrame{
		Sender: "x", ToGen: 9, Replace: true, Payload: deltaPayloadFor(t, full),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || resp.Watermark != 9 {
		t.Fatalf("replace frame: %+v, want applied at watermark 9", resp)
	}
	got, err := client.Query(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[1] != 50 {
		t.Fatalf("after replace: estimates %v, want [100 50]", got)
	}

	// Retrying the replace (its ack could have been lost) must not double.
	resp, err = client.PushDelta(ctx, DeltaFrame{
		Sender: "x", ToGen: 9, Replace: true, Payload: deltaPayloadFor(t, full),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied {
		t.Fatal("replace retry was re-applied")
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != 150 {
		t.Fatalf("total mass after replace retry = %v, want 150", stats.TotalMass)
	}
	if stats.DeltasReplaced != 1 {
		t.Fatalf("deltas_replaced = %d, want 1", stats.DeltasReplaced)
	}

	// A receiver that recovered an untracked file — y's mark, no tracker —
	// cannot attribute its counters per sender: replace must be refused,
	// without the offer.
	dir := t.TempDir()
	recCfg := cfg
	recCfg.SnapshotDir = dir
	srv1, err := New(recCfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	c1 := NewClient(hs1.URL, hs1.Client())
	if _, err := c1.PushDelta(ctx, DeltaFrame{
		Sender: "y", FromGen: 0, ToGen: 4, Payload: deltaPayloadFor(t, mkSketch(5, 9)),
	}); err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteRecoveryFile(t, dir, func(p *BootstrapPayload) {
		p.Untracked = true
		p.Senders = nil
	})
	srv2, err := New(recCfg)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	c2 := NewClient(hs2.URL, hs2.Client())

	_, err = c2.PushDelta(ctx, DeltaFrame{
		Sender: "y", FromGen: 7, ToGen: 9, Payload: deltaPayloadFor(t, mkSketch(6, 1)),
	})
	if !isWatermarkConflict(err) {
		t.Fatalf("diverged frame on untracked receiver: %v, want 409", err)
	}
	if conflictAllowsReplace(err) {
		t.Fatal("untracked receiver offered a replace it cannot apply")
	}
	_, err = c2.PushDelta(ctx, DeltaFrame{
		Sender: "y", ToGen: 9, Replace: true, Payload: deltaPayloadFor(t, mkSketch(5, 9, 6, 1)),
	})
	if !isWatermarkConflict(err) {
		t.Fatalf("replace on untracked receiver: %v, want 409 refusal", err)
	}
}

// TestResetRefusedOnHearsayMark: a bootstrapped node's watermarks are
// installed, not earned — a reset-to-0 from such a sender is refused with
// the replace offer (the sender may never have restarted at all; it just
// never acked this virgin link), and the subsequent replace lands the
// sender's full state without doubling what the transfer already carried.
func TestResetRefusedOnHearsayMark(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 41}
	ctx := context.Background()

	mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		for i := 0; i+1 < len(pairs); i += 2 {
			sk.Update(uint64(pairs[i]), pairs[i+1])
		}
		return sk
	}

	// The source holds 80 mass received from sender "b" at watermark 6.
	_, sourceClient := testDaemon(t, cfg)
	if _, err := sourceClient.PushDelta(ctx, DeltaFrame{
		Sender: "b", FromGen: 0, ToGen: 6, Payload: deltaPayloadFor(t, mkSketch(1, 80)),
	}); err != nil {
		t.Fatal(err)
	}

	joinCfg := cfg
	joinCfg.NodeID = "joiner"
	joinCfg.BootstrapFrom = []string{sourceClient.base}
	_, joinerClient := testDaemon(t, joinCfg)
	stats := waitForServing(t, joinerClient)
	if stats.Watermarks["b"] != 6 {
		t.Fatalf("joiner watermark for b = %d, want 6", stats.Watermarks["b"])
	}

	// "b" (which never restarted — the joiner just outran this virgin link
	// by bootstrapping) probes with a reset-to-0. Accepting would let b
	// re-ship the 80 the transfer already delivered.
	_, err := joinerClient.PushDelta(ctx, DeltaFrame{Sender: "b", Reset: true})
	if !isWatermarkConflict(err) {
		t.Fatalf("reset-to-0 on hearsay mark: %v, want 409", err)
	}
	if !conflictAllowsReplace(err) {
		t.Fatalf("hearsay reset refusal lacks the replace offer: %v", err)
	}

	// The replace carries b's full local state (the 80 plus 20 new): the
	// joiner nets out the transfer's copy.
	resp, err := joinerClient.PushDelta(ctx, DeltaFrame{
		Sender: "b", ToGen: 8, Replace: true, Payload: deltaPayloadFor(t, mkSketch(1, 80, 2, 20)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || resp.Watermark != 8 {
		t.Fatalf("replace after refusal: %+v", resp)
	}
	got, err := joinerClient.Query(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 80 || got[1] != 20 {
		t.Fatalf("joiner estimates %v, want [80 20]", got)
	}

	// The mark is earned now: a genuine restart's reset-to-0 is accepted.
	resp, err = joinerClient.PushDelta(ctx, DeltaFrame{Sender: "b", Reset: true})
	if err != nil {
		t.Fatalf("reset-to-0 after the mark was earned: %v", err)
	}
	if resp.Applied || resp.Watermark != 0 {
		t.Fatalf("earned reset: %+v, want no-op ack at watermark 0", resp)
	}
}

// TestReplaceFromWipedSenderKeepsHistory: a sender that was wiped and
// restarted arrives at a bootstrapped receiver with a generation counter
// *behind* the hearsay mark the transfer installed for it. Its replace
// frame must not subtract the previous incarnation's tracked mass — that is
// settled history, kept exactly as an accepted reset-to-0 would keep it —
// while the new incarnation's state is absorbed in full and anchors the
// link at the sender's true (lower) generation.
func TestReplaceFromWipedSenderKeepsHistory(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 53}
	ctx := context.Background()

	mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		for i := 0; i+1 < len(pairs); i += 2 {
			sk.Update(uint64(pairs[i]), pairs[i+1])
		}
		return sk
	}

	// The source holds 80 mass from sender "b" at watermark 6; the joiner's
	// transfer installs that as a hearsay mark plus b's tracker.
	_, sourceClient := testDaemon(t, cfg)
	if _, err := sourceClient.PushDelta(ctx, DeltaFrame{
		Sender: "b", FromGen: 0, ToGen: 6, Payload: deltaPayloadFor(t, mkSketch(1, 80)),
	}); err != nil {
		t.Fatal(err)
	}
	joinCfg := cfg
	joinCfg.NodeID = "joiner"
	joinCfg.BootstrapFrom = []string{sourceClient.base}
	_, joinerClient := testDaemon(t, joinCfg)
	waitForServing(t, joinerClient)

	// "b" was wiped and restarted: its reset-to-0 is refused (hearsay), and
	// its replace carries only the new incarnation's 20 mass at generation 2.
	_, err := joinerClient.PushDelta(ctx, DeltaFrame{Sender: "b", Reset: true})
	if !conflictAllowsReplace(err) {
		t.Fatalf("reset-to-0 on hearsay mark: %v, want 409 with the replace offer", err)
	}
	resp, err := joinerClient.PushDelta(ctx, DeltaFrame{
		Sender: "b", ToGen: 2, Replace: true, Payload: deltaPayloadFor(t, mkSketch(2, 20)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || resp.Watermark != 2 {
		t.Fatalf("replace from wiped sender: %+v, want applied at the sender's true watermark 2", resp)
	}
	got, err := joinerClient.Query(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 80 || got[1] != 20 {
		t.Fatalf("estimates %v, want [80 20] (old incarnation kept, new absorbed)", got)
	}

	// The link is anchored at the new incarnation now: its next window
	// chains off generation 2, and another replace nets against the new
	// tracker only (the 80 stays settled).
	if _, err := joinerClient.PushDelta(ctx, DeltaFrame{
		Sender: "b", FromGen: 2, ToGen: 3, Payload: deltaPayloadFor(t, mkSketch(3, 5)),
	}); err != nil {
		t.Fatalf("chained frame after wiped-sender replace: %v", err)
	}
	resp, err = joinerClient.PushDelta(ctx, DeltaFrame{
		Sender: "b", ToGen: 7, Replace: true, Payload: deltaPayloadFor(t, mkSketch(2, 20, 3, 5, 4, 9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied {
		t.Fatalf("second replace: %+v", resp)
	}
	got, err = joinerClient.Query(ctx, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 80 || got[1] != 20 || got[2] != 5 || got[3] != 9 {
		t.Fatalf("estimates %v, want [80 20 5 9]", got)
	}
}

// TestBootstrapPartialCrashResync: a receiver that crashed after acking the
// window (5,9] but before its next save comes back with the file it saved
// before that window — counters and mark both older than what the sender
// saw acknowledged. The node must not silently skip the gap: the sender's
// next frame 409s, and because the file carries the sender's tracker, the
// refusal carries the replace offer and one replace frame heals the window
// exactly.
func TestBootstrapPartialCrashResync(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 43, SnapshotDir: dir}
	ctx := context.Background()

	mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		for i := 0; i+1 < len(pairs); i += 2 {
			sk.Update(uint64(pairs[i]), pairs[i+1])
		}
		return sk
	}
	restart := func() (*Server, *Client, func()) {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		return srv, NewClient(hs.URL, hs.Client()), func() { hs.Close(); srv.Close() }
	}

	// Generation 1: mark 5, 100 mass; persisted cleanly on Close.
	srv1, c1, stop1 := restart()
	_ = srv1
	if _, err := c1.PushDelta(ctx, DeltaFrame{
		Sender: "origin", FromGen: 0, ToGen: 5, Payload: deltaPayloadFor(t, mkSketch(1, 100)),
	}); err != nil {
		t.Fatal(err)
	}
	stop1()
	path := filepath.Join(dir, SnapshotFileName)
	gen1File, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Generation 2 acks (5,9] with 50 mass, then crashes before saving it:
	// the generation-1 file is what is on disk when it comes back.
	srv2, c2, stop2 := restart()
	_ = srv2
	if resp, err := c2.PushDelta(ctx, DeltaFrame{
		Sender: "origin", FromGen: 5, ToGen: 9, Payload: deltaPayloadFor(t, mkSketch(2, 50)),
	}); err != nil || !resp.Applied {
		t.Fatalf("window (5,9]: %+v, %v", resp, err)
	}
	stop2()
	if err := os.WriteFile(path, gen1File, 0o644); err != nil {
		t.Fatal(err)
	}

	// Generation 3 recovers 100 mass against a mark of 5. The sender's next
	// in-sequence frame (from its point of view) must 409, not silently
	// skip (5,9].
	srv3, c3, stop3 := restart()
	_ = srv3
	defer stop3()
	stats, err := c3.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != 100 {
		t.Fatalf("recovered mass %v, want generation 1's 100", stats.TotalMass)
	}
	if stats.Watermarks["origin"] != 5 {
		t.Fatalf("recovered watermark %d, want generation 1's 5", stats.Watermarks["origin"])
	}
	_, err = c3.PushDelta(ctx, DeltaFrame{
		Sender: "origin", FromGen: 9, ToGen: 12, Payload: deltaPayloadFor(t, mkSketch(3, 7)),
	})
	if !isWatermarkConflict(err) {
		t.Fatalf("post-crash frame: %v, want 409", err)
	}
	if !conflictAllowsReplace(err) {
		t.Fatalf("post-crash 409 lacks the replace offer: %v", err)
	}
	resp, err := c3.PushDelta(ctx, DeltaFrame{
		Sender: "origin", ToGen: 12, Replace: true,
		Payload: deltaPayloadFor(t, mkSketch(1, 100, 2, 50, 3, 7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || resp.Watermark != 12 {
		t.Fatalf("healing replace: %+v", resp)
	}
	got, err := c3.Query(ctx, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[1] != 50 || got[2] != 7 {
		t.Fatalf("healed estimates %v, want [100 50 7]", got)
	}
	stats, err = c3.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != 157 {
		t.Fatalf("healed mass %v, want 157 (no loss, no double count)", stats.TotalMass)
	}
}

// TestUndecodableSnapshotBootstraps: a recovery file that does not install —
// here a sketchd.snap from before SKP1, a bare /v1/snapshot body — fails New,
// naming the file, unless bootstrap sources are configured: then the node
// logs it and bootstraps from a peer, and none of the file's mass leaks into
// the state it serves.
func TestUndecodableSnapshotBootstraps(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 47}
	ctx := context.Background()

	_, sourceClient := testDaemon(t, cfg)
	if err := sourceClient.Update(ctx, []engine.Update{{Item: 1, Delta: 100}}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, c1 := testDaemon(t, cfg)
	if err := c1.Update(ctx, []engine.Update{{Item: 9, Delta: 999}}); err != nil {
		t.Fatal(err)
	}
	oldFile, err := c1.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotFileName)
	if err := os.WriteFile(path, oldFile, 0o644); err != nil {
		t.Fatal(err)
	}

	nodeCfg := cfg
	nodeCfg.SnapshotDir = dir
	nodeCfg.NodeID = "rejoiner"
	if srv, err := New(nodeCfg); err == nil {
		srv.Close()
		t.Fatal("New recovered from a file that is not SKP1")
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("New's error does not name the file %s: %v", path, err)
	}

	nodeCfg.BootstrapFrom = []string{sourceClient.base}
	_, c2 := testDaemon(t, nodeCfg)
	stats := waitForServing(t, c2)
	if stats.TotalMass != 100 {
		t.Fatalf("rejoined mass %v, want the source's 100 (the file must not be absorbed)", stats.TotalMass)
	}
	got, err := c2.Query(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("the old file's mass leaked through: estimate %v", got[0])
	}
}

// TestRecoveryServesTheSameBytes: a daemon recovered from its recovery file
// serves the same /v1/snapshot bytes after the restart, holds the same
// resident sketches, and a replace frame from a tracked sender still lands
// exactly. Foreign is the recovered state, and when one sender's tracker is
// all of it — a read replica fed by one sender — that tracker is foreign
// itself again: foreign is resident as an array of its own only with two
// senders or a merge. A sender that reset to 0 and has landed nothing since
// is tracked with no counters, before the restart and after it.
func TestRecoveryServesTheSameBytes(t *testing.T) {
	for _, tc := range []struct {
		name             string
		b, merged, reset bool
		wantForeign      int
	}{
		{"one sender", false, false, false, 0},
		{"two senders", true, false, false, 1},
		{"one sender and a merge", false, true, false, 1},
		{"reset-to-0 sender", false, false, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 61, SnapshotDir: t.TempDir()}
			ctx := context.Background()
			reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
			mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
				sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
				for i := 0; i+1 < len(pairs); i += 2 {
					sk.Update(uint64(pairs[i]), pairs[i+1])
					reference.Update(uint64(pairs[i]), pairs[i+1])
				}
				return sk
			}
			start := func() (*Server, *Client) {
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				hs := httptest.NewServer(srv.Handler())
				t.Cleanup(func() { hs.Close(); closeChecked(t, srv) })
				return srv, NewClient(hs.URL, hs.Client())
			}

			srv1, c1 := start()
			frames := []DeltaFrame{
				{Sender: "a", FromGen: 0, ToGen: 4, Payload: deltaPayloadFor(t, mkSketch(2, 7, 9, 2))},
				{Sender: "a", FromGen: 4, ToGen: 5, Payload: deltaPayloadFor(t, mkSketch(4, 3))},
			}
			if tc.b {
				frames = append(frames, DeltaFrame{Sender: "b", FromGen: 0, ToGen: 3, Payload: deltaPayloadFor(t, mkSketch(1, 7, 9, 2))})
			}
			for _, f := range frames {
				if resp, err := c1.PushDelta(ctx, f); err != nil || !resp.Applied {
					t.Fatalf("window from %s: %+v, %v", f.Sender, resp, err)
				}
			}
			if tc.merged {
				if err := c1.Merge(ctx, mustEncode(t, mkSketch(5, 11, 9, 1))); err != nil {
					t.Fatal(err)
				}
			}
			if tc.reset {
				if resp, err := c1.PushDelta(ctx, DeltaFrame{Sender: "c", Reset: true}); err != nil || resp.Applied {
					t.Fatalf("reset-to-0 from c: %+v, %v", resp, err)
				}
			}
			before, err := c1.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			statsBefore, err := c1.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			closeChecked(t, srv1)

			_, c2 := start()
			after, err := c2.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("/v1/snapshot serves different bytes after the restart")
			}
			stats, err := c2.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res := stats.Resident; res.Senders != len(frames)-1 || res.Foreign != tc.wantForeign {
				t.Fatalf("recovered resident %+v, want senders %d and foreign %d", res, len(frames)-1, tc.wantForeign)
			}
			if stats.Resident != statsBefore.Resident {
				t.Fatalf("resident sketches %+v after the restart, %+v before", stats.Resident, statsBefore.Resident)
			}

			// a's full state: what it shipped so far, plus item 3. The replace
			// swaps a's share exactly, so reference gains item 3 only.
			full := mkSketch(3, 4)
			for _, pairs := range [][]float64{{2, 7, 9, 2}, {4, 3}} {
				for i := 0; i < len(pairs); i += 2 {
					full.Update(uint64(pairs[i]), pairs[i+1])
				}
			}
			resp, err := c2.PushDelta(ctx, DeltaFrame{Sender: "a", ToGen: 9, Replace: true, Payload: deltaPayloadFor(t, full)})
			if err != nil || !resp.Applied || !resp.CanReplace {
				t.Fatalf("replace after the restart: %+v, %v", resp, err)
			}
			requireAnswers(t, c2, reference, "after the replace")
		})
	}
}

// TestReceivedTrackerBecomesForeignOnlyIfEqual: a state S received whole —
// recovered from the recovery file, or installed from a bootstrap transfer —
// becomes foreign, and the one tracker that comes with it replaces foreign's
// array only when it holds S's counters bit for bit. Here b's tracker either
// is S, or holds 2^54 where S holds 1 (a tracker that is not all of S). The
// daemon serves exactly S's bytes either way, keeps b's tracker, and a window
// from b lands on top of S.
func TestReceivedTrackerBecomesForeignOnlyIfEqual(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 67}
	mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		for i := 0; i+1 < len(pairs); i += 2 {
			sk.Update(uint64(pairs[i]), pairs[i+1])
		}
		return sk
	}
	snapSketch := mkSketch(1, 1, 2, 5)
	snap := mustEncode(t, snapSketch)
	ctx := context.Background()
	for _, via := range []string{"disk", "bootstrap"} {
		for _, equal := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/equal=%v", via, equal), func(t *testing.T) {
				tracker := snap
				if !equal {
					tracker = mustEncode(t, mkSketch(1, 1<<54))
				}
				payload := BootstrapPayload{
					NodeID: "source", Snapshot: snap, Senders: map[string][]byte{"b": tracker}, Watermarks: map[string]uint64{"b": 5},
				}
				var client *Client
				if via == "disk" {
					nodeCfg := cfg
					nodeCfg.SnapshotDir = t.TempDir()
					writeRecoveryFile(t, nodeCfg.SnapshotDir, payload)
					_, client = testDaemon(t, nodeCfg)
				} else {
					var srv *Server
					srv, client = testDaemon(t, cfg)
					payload.Hearsay = []string{"b"}
					if err := srv.installBootstrap(&payload); err != nil {
						t.Fatal(err)
					}
				}
				served, err := client.Snapshot(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(served, snap) {
					t.Fatal("the daemon does not serve the received state's bytes")
				}
				stats, err := client.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				want := ResidentSketches{Senders: 1}
				if !equal {
					want.Foreign = 1
				}
				if stats.Resident != want {
					t.Fatalf("resident %+v, want %+v", stats.Resident, want)
				}
				window := mkSketch(2, 3, 7, 1)
				if resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "b", FromGen: 5, ToGen: 6, Payload: deltaPayloadFor(t, window)}); err != nil || !resp.Applied {
					t.Fatalf("window from b: %+v, %v", resp, err)
				}
				if err := window.Merge(snapSketch); err != nil {
					t.Fatal(err)
				}
				requireAnswers(t, client, window, "after b's window")
			})
		}
	}
}
