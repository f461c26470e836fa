package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// heapAllocAfterGC forces a collection (twice: the first moves pooled buffers
// to the pools' victim caches, the second drops them) and returns the bytes
// of live heap objects.
func heapAllocAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIdleDaemonHeap is the heap gate on "a counter array exists only once it
// holds mass": at the daemon's default 65536x4 shape a sketch is 2 MiB, so an
// eagerly cloned prototype, replica, foreign sketch or tracker anywhere in
// New shows as megabytes. A fresh daemon must cost under 1 MiB, and one
// ingested batch must bring in one replica and nothing else.
func TestIdleDaemonHeap(t *testing.T) {
	before := heapAllocAfterGC()
	srv, err := New(Config{Width: 65536, Depth: 4, Engine: engine.Config{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	grew := func() float64 {
		return (float64(heapAllocAfterGC()) - float64(before)) / (1 << 20)
	}
	idle := grew()

	items, deltas := make([]uint64, 256), make([]float64, 256)
	for i := range items {
		items[i], deltas[i] = uint64(i), 1
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(AppendBatchColumns(nil, items, deltas)))
	req.Header.Set("Content-Type", contentTypeBatch)
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/update: %d %s", rec.Code, rec.Body)
	}
	oneBatch := grew()
	runtime.KeepAlive(srv)

	t.Logf("heap growth: idle daemon %.2f MiB, after one batch %.2f MiB", idle, oneBatch)
	if raceEnabled {
		t.Skip("thresholds are not sized for the race detector's allocator overhead")
	}
	if idle >= 1 {
		t.Errorf("an idle 65536x4 daemon grew the heap by %.2f MiB, want < 1 (a 2 MiB sketch is being cloned before it holds mass)", idle)
	}
	if oneBatch >= 5 {
		t.Errorf("a 65536x4 daemon that ingested one batch grew the heap by %.2f MiB, want < 5 (one 2 MiB replica)", oneBatch)
	}
}

// TestMeshNodeHeap is the heap gate on "serve the sum, don't store it": in a
// two-node 65536x4 mesh fed at one node, reading a node must not cost it an
// array. The feeder holds its replicas and the engine's one pinned cut — which
// is what it serves and what it retains as its peer's baseline; the receiver
// holds foreign — which is what it serves — and the feeder's tracker. The test
// is the gossip ticker, so the two nodes' growth is measured apart: the feeder
// is fed and read before its first frame ships.
func TestMeshNodeHeap(t *testing.T) {
	const workers = 2
	cfg := Config{
		Width: 65536, Depth: 4, K: 32, Seed: 59,
		Engine:      engine.Config{Workers: workers},
		Producers:   workers,
		GossipEvery: time.Hour,
	}
	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	before := heapAllocAfterGC()
	nodes := startMesh(t, 2, cfg) // nodes[0] is fed, nodes[1] receives
	feeder := nodes[0]
	ctx := context.Background()
	grew := func() float64 {
		return (float64(heapAllocAfterGC()) - float64(before)) / (1 << 20)
	}

	r := xrand.New(61)
	var feederGrew, receiverGrew float64
	var stats [2]Stats
	read := func(i int, what string) {
		t.Helper()
		var err error
		if stats[i], err = nodes[i].client.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		requireAnswers(t, nodes[i].client, reference, what)
	}
	for round := 0; round < 3; round++ {
		for batch := 0; batch < 2*workers; batch++ {
			items, deltas := make([]uint64, 512), make([]float64, 512)
			for i := range items {
				items[i], deltas[i] = uint64(r.Intn(4096)), float64(1+r.Intn(4))
			}
			reference.UpdateBatch(items, deltas)
			if err := feeder.client.UpdateColumns(ctx, items, deltas); err != nil {
				t.Fatal(err)
			}
		}
		read(0, "feeder")
		if round == 0 {
			feederGrew = grew()
		}
		feeder.srv.gossipTick(ctx)
		read(1, "receiver")
		if round == 0 {
			receiverGrew = grew() - feederGrew
		}
	}
	total := grew()
	runtime.KeepAlive(nodes)
	runtime.KeepAlive(reference) // allocated before the baseline: collecting it would read as shrinkage

	t.Logf("heap growth: feeder %.2f MiB (%+v), receiver %.2f MiB (%+v), both after three rounds %.2f MiB",
		feederGrew, stats[0].Resident, receiverGrew, stats[1].Resident, total)
	if raceEnabled {
		t.Skip("thresholds are not sized for the race detector's allocator overhead")
	}
	if limit := float64(2*workers + 3); feederGrew >= limit {
		t.Errorf("a fed and read 65536x4 feeder grew the heap by %.2f MiB, want < %v (%d replicas and one pinned cut of 2 MiB)", feederGrew, limit, workers)
	}
	if receiverGrew >= 5 {
		t.Errorf("shipping to a 65536x4 receiver and reading it grew the heap by %.2f MiB, want < 5 (foreign and one sender tracker; a third array is a stored copy of the sum, or a baseline beside the pinned cut)", receiverGrew)
	}
	if limit := float64(2*workers + 3 + 5); total >= limit {
		t.Errorf("after three rounds the two nodes grew the heap by %.2f MiB, want < %v: a superseded cut, foreign or epoch is still held", total, limit)
	}
}

// denseKeys is the key column the residency tests compare answers over.
func denseKeys() []uint64 {
	keys := make([]uint64, 2048)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}

// requireAnswers fails unless the daemon answers every key of the dense column
// bit-identically to want.
func requireAnswers(t *testing.T, client *Client, want *sketch.HeavyHitterTracker, what string) {
	t.Helper()
	keys := denseKeys()
	got, err := client.QueryBatch(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if w := want.Estimate(key); got[i] != w {
			t.Fatalf("%s: estimate(%d) = %v, single-threaded tracker says %v", what, key, got[i], w)
		}
	}
}

// TestResidentSketchesFollowMass: in a two-node mesh fed at one node, each
// node holds counters only where it holds mass — the feeder in its replicas
// and the engine's one pinned cut, which is both what it serves and the
// baseline it retains for its peer, never in foreign; the receiver in foreign,
// which is also what it serves, and the feeder's tracker, never in a replica
// or a cut — and both still answer exactly like one single-threaded tracker.
func TestResidentSketchesFollowMass(t *testing.T) {
	cfg := Config{
		Width: 512, Depth: 4, K: 16, Seed: 29,
		Engine:      engine.Config{Workers: 2, BatchSize: 64},
		Producers:   2,
		GossipEvery: 10 * time.Millisecond,
	}
	nodes := startMesh(t, 2, cfg)
	feeder, receiver := nodes[0], nodes[1]
	ctx := context.Background()

	for _, node := range nodes {
		stats, err := node.client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res := stats.Resident; stats.CounterWords != 0 || res.Replicas+res.Foreign+res.Senders+res.LocalCut+res.Baselines != 0 {
			t.Fatalf("node %s before any ingest: counter_words %d, resident %+v; want nothing resident", node.url, stats.CounterWords, stats.Resident)
		}
	}

	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	r := xrand.New(31)
	for round := 0; round < 20; round++ {
		items, deltas := make([]uint64, 300), make([]float64, 300)
		for i := range items {
			items[i], deltas[i] = uint64(r.Intn(2048)), float64(1+r.Intn(4))
		}
		reference.UpdateBatch(items, deltas)
		if err := feeder.client.UpdateColumns(ctx, items, deltas); err != nil {
			t.Fatal(err)
		}
	}
	waitForMass(t, receiver, reference.TotalMass())

	got, err := receiver.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ResidentSketches{Foreign: 1, Senders: 1}); got.CounterWords != 0 || got.Resident != want {
		t.Fatalf("receiver: counter_words %d, resident %+v; want %+v", got.CounterWords, got.Resident, want)
	}
	// The feeder's last frame may still be in flight to be acked; its baseline
	// count settles once the peer's lag is zero.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, err = feeder.client.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		if got.Peers[0].LagGens == 0 && !got.Peers[0].Pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("feeder never saw its frames acked: %+v", got.Peers[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if want := (ResidentSketches{Replicas: 2, LocalCut: 1}); got.CounterWords != 2*cfg.Width*cfg.Depth || got.Resident != want {
		t.Fatalf("feeder: counter_words %d, resident %+v; want %+v", got.CounterWords, got.Resident, want)
	}
	requireAnswers(t, feeder.client, reference, "feeder")
	requireAnswers(t, receiver.client, reference, "receiver")
}

// TestResetToZeroTracksWithoutATracker: accepting a reset-to-0 records that
// the sender is tracked and has landed nothing — the replace offer stands on
// every answer — without allocating a tracker; the sender's mass, arriving as
// a replace frame or as a window, is what brings one in.
func TestResetToZeroTracksWithoutATracker(t *testing.T) {
	cfg := Config{Width: 256, Depth: 4, K: 8, Seed: 43}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()
	senders := func() int {
		t.Helper()
		stats, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Resident.Senders
	}
	state := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	state.Update(1, 80)

	resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "b", Reset: true})
	if err != nil || resp.Applied || !resp.CanReplace {
		t.Fatalf("reset-to-0: %+v, %v; want a no-op ack offering replace", resp, err)
	}
	// A window that does not start at the mark is refused with the offer.
	_, err = client.PushDelta(ctx, DeltaFrame{Sender: "b", FromGen: 3, ToGen: 5, Payload: deltaPayloadFor(t, state)})
	if !conflictAllowsReplace(err) {
		t.Fatalf("misaligned window after a reset-to-0: %v, want a 409 offering replace", err)
	}
	if n := senders(); n != 0 {
		t.Fatalf("%d sender trackers resident after a reset-to-0 and a refused frame, want 0", n)
	}

	resp, err = client.PushDelta(ctx, DeltaFrame{Sender: "b", ToGen: 5, Replace: true, Payload: deltaPayloadFor(t, state)})
	if err != nil || !resp.Applied || !resp.CanReplace {
		t.Fatalf("replace after the reset: %+v, %v", resp, err)
	}
	if n := senders(); n != 1 {
		t.Fatalf("%d sender trackers resident after a replace frame, want 1", n)
	}
	requireAnswers(t, client, state, "after the replace")

	// A second sender goes reset-to-0, then a window: the same, by the other door.
	if _, err := client.PushDelta(ctx, DeltaFrame{Sender: "c", Reset: true}); err != nil {
		t.Fatal(err)
	}
	if n := senders(); n != 1 {
		t.Fatalf("%d sender trackers resident after c's reset-to-0, want 1 (b's)", n)
	}
	window := state.Clone()
	window.Update(2, 20)
	resp, err = client.PushDelta(ctx, DeltaFrame{Sender: "c", FromGen: 0, ToGen: 2, Payload: deltaPayloadFor(t, window)})
	if err != nil || !resp.Applied || !resp.CanReplace {
		t.Fatalf("c's first window: %+v, %v", resp, err)
	}
	if n := senders(); n != 2 {
		t.Fatalf("%d sender trackers resident after c's first window, want 2", n)
	}
	state.Update(2, 20)
	requireAnswers(t, client, state, "after c's window")
}

// TestDeltaBodyBufferIsNotRetained: /v1/delta reads its body into a pooled
// buffer that the next request overwrites, so nothing the handler keeps — the
// sender id under the watermark, the tracker a replace frame installs — may
// alias it. The test seeds the pool with a buffer it holds on to, scribbles
// over it after each frame, and checks the daemon's answers, watermark and
// the subtraction of the installed tracker by a second replace.
func TestDeltaBodyBufferIsNotRetained(t *testing.T) {
	cfg := Config{Width: 256, Depth: 4, K: 8, Seed: 47}
	mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		for i := 0; i+1 < len(pairs); i += 2 {
			sk.Update(uint64(pairs[i]), pairs[i+1])
		}
		return sk
	}
	// sync.Pool may decline to hand the seeded buffer back (it drops a quarter
	// of Puts under -race); a fresh daemon per attempt makes that a retry.
	for attempt := 0; attempt < 20; attempt++ {
		srv, client := testDaemon(t, cfg)
		ctx := context.Background()
		mine := make([]byte, 0, 1<<16)
		post := func(f DeltaFrame) (scribbled bool) {
			t.Helper()
			frame := AppendDeltaFrame(nil, f)
			srv.bodyScratch.Put(&mine)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/delta", bytes.NewReader(frame)))
			if rec.Code != http.StatusOK {
				t.Fatalf("POST /v1/delta: %d %s", rec.Code, rec.Body)
			}
			used := bytes.Equal(mine[:len(frame)], frame)
			for i := range mine[:cap(mine)] {
				mine[:cap(mine)][i] = 0xA5
			}
			return used
		}
		window := post(DeltaFrame{Sender: "sender-b", FromGen: 0, ToGen: 4, Payload: deltaPayloadFor(t, mkSketch(1, 80))})
		replace := post(DeltaFrame{Sender: "sender-b", ToGen: 6, Replace: true, Payload: deltaPayloadFor(t, mkSketch(1, 80, 2, 20))})
		reset := post(DeltaFrame{Sender: "sender-c", FromGen: 3, ToGen: 3, Reset: true})
		if !window || !replace || !reset {
			continue
		}
		requireAnswers(t, client, mkSketch(1, 80, 2, 20), "after the scribbled frames")
		stats, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Watermarks) != 2 || stats.Watermarks["sender-b"] != 6 || stats.Watermarks["sender-c"] != 3 {
			t.Fatalf("watermarks %v, want sender-b:6 sender-c:3", stats.Watermarks)
		}
		// The second replace subtracts the tracker the first one installed.
		if _, err := client.PushDelta(ctx, DeltaFrame{Sender: "sender-b", ToGen: 9, Replace: true, Payload: deltaPayloadFor(t, mkSketch(1, 50, 3, 7))}); err != nil {
			t.Fatal(err)
		}
		requireAnswers(t, client, mkSketch(1, 50, 3, 7), "after the second replace")
		return
	}
	t.Fatal("the body pool never handed the seeded buffer to all three requests")
}
