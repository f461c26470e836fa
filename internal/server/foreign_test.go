package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// sketchesBitEqual reports whether two trackers hold bit-identical counters
// and total mass: the backing Count-Min's encoding serializes exactly those
// (candidates are heuristic and not compared).
func sketchesBitEqual(t *testing.T, a, b *sketch.HeavyHitterTracker) bool {
	t.Helper()
	return bytes.Equal(mustEncode(t, a.Backing()), mustEncode(t, b.Backing()))
}

// TestForeignMassStaysOutOfEngine pins the seam between the engine and the
// daemon: the engine holds what was ingested here and nothing else, foreign
// mass lives in Server.foreign, and the two are summed only when the daemon
// serves. One daemon is driven through all five foreign entry points —
// snapshot recovery at start, /v1/merge, a window /v1/delta, a replace
// /v1/delta, a bootstrap install — interleaved with local POSTs, and after
// every step:
//
//   - the engine's own snapshot is bit-equal to a single-threaded sketch of
//     the locally posted updates only (fails if an entry point is re-pointed
//     at the engine);
//   - /v1/snapshot is bit-equal to the single-threaded sketch of everything;
//   - the next gossip frame's payload decodes to exactly the local updates
//     posted since the previous frame — or no frame ships when there are none;
//   - a key that is heavy only in the step's foreign mass is in /v1/topk.
func TestForeignMassStaysOutOfEngine(t *testing.T) {
	// "replica" names the engine's one sharding; the subtest keeps the name
	// this check has always run under.
	t.Run("replica", func(t *testing.T) {
		ctx := context.Background()
		dir := t.TempDir()
		cfg := Config{
			Width: 256, Depth: 4, K: 16, Seed: 73,
			Engine:      engine.Config{Workers: 3, BatchSize: 64},
			NodeID:      "node-x",
			SnapshotDir: dir,
		}
		newSketch := func() *sketch.HeavyHitterTracker {
			return sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		}
		r := xrand.New(79)
		// foreignSketch builds a sketch of light noise plus one key, heavy
		// nowhere else, and adds the same updates to every dst.
		foreignSketch := func(heavy uint64, dst ...*sketch.HeavyHitterTracker) *sketch.HeavyHitterTracker {
			sk := newSketch()
			add := func(item uint64, delta float64) {
				sk.Update(item, delta)
				for _, d := range dst {
					d.Update(item, delta)
				}
			}
			for i := 0; i < 200; i++ {
				add(uint64(r.Intn(1000)), float64(1+r.Intn(3)))
			}
			add(heavy, 1e6)
			return sk
		}

		// everything and local are the single-threaded references.
		everything, local := newSketch(), newSketch()

		// Entry point 1, recovery: a previous incarnation held this mass
		// and shut down (writing its recovery file); the restarted daemon
		// recovers it as foreign.
		prev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prevHS := httptest.NewServer(prev.Handler())
		if err := NewClient(prevHS.URL, prevHS.Client()).Merge(ctx, mustEncode(t, foreignSketch(1_000_001, everything))); err != nil {
			t.Fatal(err)
		}
		prevHS.Close()
		if err := prev.Close(); err != nil {
			t.Fatal(err)
		}

		// The gossip peer, fronted by a recorder that keeps every frame.
		peerCfg := Config{Width: cfg.Width, Depth: cfg.Depth, K: cfg.K, Seed: cfg.Seed, NodeID: "peer"}
		peerSrv, err := New(peerCfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &deltaRecorder{next: peerSrv.Handler()}
		peerHS := httptest.NewServer(rec)
		t.Cleanup(func() { peerHS.Close(); peerSrv.Close() })

		cfg.Peers = []string{peerHS.URL}
		cfg.GossipEvery = time.Hour // the test is the ticker
		d, client := testDaemon(t, cfg)

		window := newSketch() // local updates since the last gossip frame
		postLocal := func() {
			t.Helper()
			items, deltas := make([]uint64, 300), make([]float64, 300)
			for i := range items {
				items[i], deltas[i] = uint64(r.Intn(1000)), float64(1+r.Intn(4))
				for _, sk := range []*sketch.HeavyHitterTracker{everything, local, window} {
					sk.Update(items[i], deltas[i])
				}
			}
			if err := client.UpdateColumns(ctx, items, deltas); err != nil {
				t.Fatal(err)
			}
		}
		framesSeen := 0
		check := func(step string, heavy uint64) {
			t.Helper()
			eng, err := d.eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !sketchesBitEqual(t, eng, local) {
				t.Fatalf("%s: the engine's snapshot (mass %v) is not the sketch of the local updates (mass %v): foreign mass reached the engine",
					step, eng.TotalMass(), local.TotalMass())
			}
			served, err := client.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			total, err := d.eng.DecodeReplica(served)
			if err != nil {
				t.Fatal(err)
			}
			if !sketchesBitEqual(t, total, everything) {
				t.Fatalf("%s: /v1/snapshot (mass %v) is not the sketch of everything (mass %v)",
					step, total.TotalMass(), everything.TotalMass())
			}

			d.gossipPush(ctx, true)
			frames := rec.frames()
			if window.TotalMass() == 0 {
				if len(frames) != framesSeen {
					t.Fatalf("%s: a gossip frame shipped with no local update since the last one", step)
				}
			} else {
				if len(frames) != framesSeen+1 {
					t.Fatalf("%s: %d gossip frames shipped, want 1", step, len(frames)-framesSeen)
				}
				frame, err := DecodeDeltaFrame(frames[framesSeen])
				if err != nil {
					t.Fatal(err)
				}
				shipped, err := d.decodeDeltaPayload(frame.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if !sketchesBitEqual(t, shipped, window) {
					t.Fatalf("%s: the gossip frame carries mass %v, the local window holds %v",
						step, shipped.TotalMass(), window.TotalMass())
				}
				framesSeen++
				window = newSketch()
			}

			if heavy != 0 {
				top, err := client.TopK(ctx, cfg.K)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, ic := range top {
					found = found || ic.Item == heavy
				}
				if !found {
					t.Fatalf("%s: key %d, heavy only in the foreign mass, is missing from /v1/topk %v", step, heavy, top)
				}
			}
		}

		check("recovery", 1_000_001)
		postLocal()
		check("local post 1", 1_000_001)

		// Entry point 2: /v1/merge.
		if err := client.Merge(ctx, mustEncode(t, foreignSketch(1_000_002, everything))); err != nil {
			t.Fatal(err)
		}
		check("merge", 1_000_002)
		postLocal()

		// Entry point 3: a window /v1/delta.
		senderState := newSketch() // everything "peer-w" has shipped
		resp, err := client.PushDelta(ctx, DeltaFrame{
			Sender: "peer-w", FromGen: 0, ToGen: 3,
			Payload: deltaPayloadFor(t, foreignSketch(1_000_003, everything, senderState)),
		})
		if err != nil || !resp.Applied {
			t.Fatalf("window frame: %+v, %v", resp, err)
		}
		check("window delta", 1_000_003)

		// Entry point 4: a replace /v1/delta carrying the sender's entire
		// state; the daemon nets out what it already holds from it.
		if err := senderState.Merge(foreignSketch(1_000_004, everything)); err != nil {
			t.Fatal(err)
		}
		resp, err = client.PushDelta(ctx, DeltaFrame{
			Sender: "peer-w", ToGen: 9, Replace: true, Payload: deltaPayloadFor(t, senderState),
		})
		if err != nil || !resp.Applied {
			t.Fatalf("replace frame: %+v, %v", resp, err)
		}
		check("replace delta", 1_000_004)
		postLocal()
		check("local post 3", 0)

		// Entry point 5: a bootstrap install.
		if err := d.installBootstrap(&BootstrapPayload{
			NodeID:   "source",
			Snapshot: mustEncode(t, foreignSketch(1_000_005, everything)),
		}); err != nil {
			t.Fatal(err)
		}
		check("bootstrap install", 1_000_005)
		postLocal()
		check("local post 4", 0)

		// The peer was shipped this daemon's local mass and nothing else.
		stats, err := NewClient(peerHS.URL, peerHS.Client()).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalMass != local.TotalMass() {
			t.Fatalf("the peer holds mass %v, the local updates sum to %v", stats.TotalMass, local.TotalMass())
		}
	})
}

func mustEncode(t *testing.T, sk interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
