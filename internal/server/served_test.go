package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// The tests in this file pin what the daemon serves the sum from: the read
// epoch is the engine's pinned cut or the foreign sketch itself whenever the
// other operand is empty, the replicator's baselines are that same cut, and
// nothing — no mutator, no racing reader, no racing gossip tick — may change
// an object once it has been handed out or lose an acknowledged write.

// postOne acknowledges a one-update batch through the /v1/update handler.
func postOne(t testing.TB, srv *Server, item uint64, delta float64) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(AppendBatchColumns(nil, []uint64{item}, []float64{delta})))
	req.Header.Set("Content-Type", contentTypeBatch)
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/update: %d %s", rec.Code, rec.Body)
	}
}

// TestServedSnapshotIsImmutable drives every mutator past objects that were
// handed out — served epochs and retained peer baselines, which alias the
// foreign sketch and the engine's pinned cut — and after each one checks that
// every object handed out so far still encodes to the bytes, and cuts the
// delta frame, it did when it was handed out, and that the daemon's dense
// answers equal the single-threaded reference bit for bit. One daemon starts
// as a read replica (the epoch is foreign itself until the first local
// batch), the other as a feeder (the epoch is the pinned cut, and the peer
// baseline the very same object, until the first foreign mass).
func TestServedSnapshotIsImmutable(t *testing.T) {
	for _, start := range []string{"read replica", "feeder"} {
		t.Run(start, func(t *testing.T) {
			ctx := context.Background()
			cfg := Config{Width: 256, Depth: 4, K: 16, Seed: 83, Engine: engine.Config{Workers: 2, BatchSize: 64}}
			newSketch := func() *sketch.HeavyHitterTracker {
				return sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
			}
			peerCfg := cfg
			peerCfg.NodeID = "peer"
			_, peerClient := testDaemon(t, peerCfg)
			cfg.NodeID, cfg.Peers = "node-x", []string{peerClient.base}
			cfg.GossipEvery = time.Hour // the test is the ticker
			d, client := testDaemon(t, cfg)

			everything, local := newSketch(), newSketch()
			r := xrand.New(89)
			// noise returns a sketch of 200 fresh updates, also added to
			// everything and to each of dst.
			noise := func(dst ...*sketch.HeavyHitterTracker) *sketch.HeavyHitterTracker {
				sk := newSketch()
				for i := 0; i < 200; i++ {
					item, delta := uint64(r.Intn(2048)), float64(1+r.Intn(4))
					for _, to := range append(dst, sk, everything) {
						to.Update(item, delta)
					}
				}
				return sk
			}
			postLocal := func() {
				t.Helper()
				items, deltas := make([]uint64, 300), make([]float64, 300)
				for i := range items {
					items[i], deltas[i] = uint64(r.Intn(2048)), float64(1+r.Intn(4))
				}
				everything.UpdateBatch(items, deltas)
				local.UpdateBatch(items, deltas)
				if err := client.UpdateColumns(ctx, items, deltas); err != nil {
					t.Fatal(err)
				}
			}
			// gossip ticks once and checks the peer holds the local mass alone.
			gossip := func(step string) {
				t.Helper()
				d.gossipPush(ctx, true)
				stats, err := peerClient.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if stats.TotalMass != local.TotalMass() {
					t.Fatalf("%s: the peer holds mass %v, the local updates sum to %v", step, stats.TotalMass, local.TotalMass())
				}
			}

			type handedOut struct {
				what         string
				sk           *sketch.HeavyHitterTracker
				bytes, frame []byte
			}
			var pins []handedOut
			frameOf := func(sk *sketch.HeavyHitterTracker) []byte {
				t.Helper()
				frame, err := sk.AppendDeltaSince(nil, d.proto)
				if err != nil {
					t.Fatal(err)
				}
				return frame
			}
			// check verifies everything handed out so far, reads the dense
			// column (which publishes the epoch for this step's state), and
			// pins what the daemon serves and retains now. It returns the
			// served snapshot and the peer's baseline.
			check := func(step string) (served, baseline *sketch.HeavyHitterTracker) {
				t.Helper()
				for _, p := range pins {
					if !bytes.Equal(mustEncode(t, p.sk), p.bytes) {
						t.Fatalf("%s: the %s no longer marshals to the bytes it was handed out with", step, p.what)
					}
					if !bytes.Equal(frameOf(p.sk), p.frame) {
						t.Fatalf("%s: the %s no longer cuts the delta frame it was handed out with", step, p.what)
					}
				}
				requireAnswers(t, client, everything, step)
				served = d.epoch.Load().snap
				pins = append(pins, handedOut{"epoch served after " + step, served, mustEncode(t, served), frameOf(served)})
				d.peerMu.Lock()
				baseline = d.peers[0].baseline
				d.peerMu.Unlock()
				if baseline != d.proto {
					pins = append(pins, handedOut{"peer baseline retained after " + step, baseline, mustEncode(t, baseline), frameOf(baseline)})
				}
				return served, baseline
			}
			foreignNow := func() *sketch.HeavyHitterTracker {
				d.snapMu.Lock()
				defer d.snapMu.Unlock()
				return d.foreign
			}

			if start == "feeder" {
				// No foreign mass yet: the pinned cut is served and retained.
				postLocal()
				gossip("first local batch")
				served, baseline := check("first local batch")
				if served != baseline {
					t.Fatal("with no foreign mass the served epoch and the acked peer baseline are different objects, want the engine's one pinned cut")
				}
			}

			// Each foreign mutator in turn. On the read replica the engine has
			// dispatched nothing, so each step's epoch is foreign itself and
			// the next step must copy before it writes.
			senderState := newSketch() // everything "peer-w" has shipped
			mutators := []struct {
				name string
				run  func()
			}{
				{"a window frame", func() {
					resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "peer-w", FromGen: 0, ToGen: 3, Payload: deltaPayloadFor(t, noise(senderState))})
					if err != nil || !resp.Applied {
						t.Fatalf("window frame: %+v, %v", resp, err)
					}
				}},
				{"a replace frame", func() {
					noise(senderState)
					resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "peer-w", ToGen: 9, Replace: true, Payload: deltaPayloadFor(t, senderState)})
					if err != nil || !resp.Applied {
						t.Fatalf("replace frame: %+v, %v", resp, err)
					}
				}},
				{"a reset-to-0 and a window", func() {
					if _, err := client.PushDelta(ctx, DeltaFrame{Sender: "peer-r", Reset: true}); err != nil {
						t.Fatal(err)
					}
					resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "peer-r", FromGen: 0, ToGen: 2, Payload: deltaPayloadFor(t, noise())})
					if err != nil || !resp.Applied {
						t.Fatalf("window after the reset: %+v, %v", resp, err)
					}
				}},
				{"a /v1/merge", func() {
					if err := client.Merge(ctx, mustEncode(t, noise())); err != nil {
						t.Fatal(err)
					}
				}},
				{"an installed bootstrap transfer", func() {
					if err := d.installBootstrap(&BootstrapPayload{NodeID: "source", Snapshot: mustEncode(t, noise())}); err != nil {
						t.Fatal(err)
					}
				}},
			}
			for _, m := range mutators {
				m.run()
				served, _ := check(m.name)
				if start == "read replica" && served != foreignNow() {
					t.Fatalf("after %s on a node that ingested nothing the served epoch is not the foreign sketch itself", m.name)
				}
			}

			// Both operands hold mass from here on: the epoch owns its sum, the
			// baseline is the engine's pinned cut, and foreign mutators must
			// leave that cut alone however often the sum is rebuilt from it.
			postLocal()
			gossip("a local batch")
			if served, baseline := check("a local batch"); served == baseline || served == foreignNow() {
				t.Fatal("with both kinds of mass the served epoch aliases one of its operands")
			}
			for _, m := range mutators[3:] {
				m.run()
				check(m.name + ", both kinds of mass resident")
			}
			postLocal()
			check("a second local batch")
			gossip("a second local batch")
			check("the tick after it")
		})
	}
}

// TestReadersRaceDeltaApplyOnReadReplica: on a node whose engine has
// dispatched nothing, the served epoch is the foreign sketch itself, and
// every applied window frame writes to foreign. Closed-loop batch readers run
// against a peer streaming window frames; under -race a write to a foreign
// that readers still hold is a reported data race, and without it the readers
// still check that no answer ever goes backwards.
func TestReadersRaceDeltaApplyOnReadReplica(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 97}
	d, client := testDaemon(t, cfg)
	ctx := context.Background()
	keys := denseKeys()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]float64, len(keys))
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := client.QueryBatch(ctx, keys)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] < last[i] {
						t.Errorf("estimate(%d) went from %v back to %v under positive deltas", keys[i], last[i], got[i])
						return
					}
				}
				last = got
				reads.Add(1)
			}
		}()
	}

	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	r := xrand.New(101)
	for gen := uint64(0); gen < 150; gen++ {
		window := reference.Clone()
		for i := 0; i < 50; i++ {
			window.Update(uint64(r.Intn(2048)), float64(1+r.Intn(4)))
		}
		if err := reference.Merge(window); err != nil {
			t.Fatal(err)
		}
		resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "peer", FromGen: gen, ToGen: gen + 1, Payload: deltaPayloadFor(t, window)})
		if err != nil || !resp.Applied {
			t.Fatalf("window frame %d: %+v, %v", gen, resp, err)
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no batch read completed while the frames streamed")
	}
	if g := d.eng.Generation(); g != 0 {
		t.Fatalf("the engine dispatched %d batches on a node that only applied deltas", g)
	}
	requireAnswers(t, client, reference, "after the stream of window frames")
}

// TestAckedWriteVisibleThroughPinnedCut: a read that follows an acknowledged
// batch includes it, every time, although the read path no longer cuts its own
// barrier snapshot but takes whatever cut the engine has pinned — and a gossip
// tick keeps pinning cuts concurrently. Each batch adds 1 to one key, so the
// i-th read must answer exactly i (plus the foreign mass, where there is any),
// and a gossip cut stamped with local generation g must hold at least mass g.
func TestAckedWriteVisibleThroughPinnedCut(t *testing.T) {
	const key, foreignMass = 7, 1000
	for _, tc := range []struct {
		name      string
		partition bool
		foreign   bool
		batches   int
	}{
		{"replica", false, false, 10_000},
		{"partition", true, false, 10_000},
		{"replica, foreign mass resident", false, true, 2_000},
		{"partition, foreign mass resident", true, true, 2_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Width: 256, Depth: 4, K: 8, Seed: 103, Engine: engine.Config{Workers: 2, BatchSize: 64, Partition: tc.partition}}
			d, client := testDaemon(t, cfg)
			base := 0.0
			if tc.foreign {
				sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
				sk.Update(key, foreignMass)
				if err := client.Merge(context.Background(), mustEncode(t, sk)); err != nil {
					t.Fatal(err)
				}
				base = foreignMass
			}

			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					local, gen, err := d.localSnapshot()
					if err != nil {
						t.Error(err)
						return
					}
					if mass := local.TotalMass(); mass < float64(gen) {
						t.Errorf("a gossip cut stamped with local generation %d holds mass %v", gen, mass)
						return
					}
					runtime.Gosched()
				}
			}()
			for i := 1; i <= tc.batches; i++ {
				postOne(t, d, key, 1)
				ep, err := d.readEpochSnap()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := ep.snap.Estimate(key), base+float64(i); got != want {
					t.Fatalf("read after acknowledged batch %d answers %v, want %v (epoch gen %d)", i, got, want, ep.gen)
				}
			}
			close(stop)
			<-done
		})
	}
}

// BenchmarkServedRebuild times one rebuild of the served state at the
// daemon's default 65536x4 shape, by which operands hold mass and by whether
// the engine's pinned cut is still current (a gossip tick pinned it and only
// foreign mass moved since) or a local batch has made it stale. An engine
// that has dispatched nothing has no cut to go stale, so that row has one
// column.
func BenchmarkServedRebuild(b *testing.B) {
	for _, bc := range []struct {
		name           string
		local, foreign bool
		stale          bool
	}{
		{"foreign_nil/cut_pinned", true, false, false},
		{"foreign_nil/cut_stale", true, false, true},
		{"engine_empty", false, true, false},
		{"both/cut_pinned", true, true, false},
		{"both/cut_stale", true, true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := New(Config{Width: 65536, Depth: 4, Engine: engine.Config{Workers: 2}})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			r := xrand.New(107)
			if bc.local {
				for i := 0; i < 64; i++ {
					postOne(b, srv, r.Uint64(), 1)
				}
			}
			if bc.foreign {
				sk := srv.proto.Clone()
				for i := 0; i < 4096; i++ {
					sk.Update(r.Uint64(), 1)
				}
				srv.snapMu.Lock()
				err := srv.mergeForeign(sk)
				srv.snapMu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
			}
			rebuild := func() {
				srv.snapMu.Lock()
				_, err := srv.snapshotLocked()
				srv.snapMu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
			}
			if bc.local && !bc.stale {
				if _, _, err := srv.localSnapshot(); err != nil { // what a gossip tick pins
					b.Fatal(err)
				}
			}
			rebuild()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.stale {
					b.StopTimer()
					postOne(b, srv, r.Uint64(), 1)
					b.StartTimer()
				} else {
					srv.gen.Add(1) // what an applied delta or a merge does to the epoch
				}
				rebuild()
			}
			b.StopTimer() // the deferred Close cuts a last merge
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/op")
		})
	}
}
