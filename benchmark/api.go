package main

// Every call the harness makes into repro/internal/... is in this file, and
// only through the columnar names ROADMAP item 3 keeps (UpdateColumns,
// DecodeBatchColumns, NewTracker — never DecodeBatch, the AoS
// UpdateBatch([]Update), Counters() or engine.New + WithCodec). The rest of
// the harness sees the small types below, so a rename in the program is an
// edit here and not a compile break across the benchmark.

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// Media types of the daemon's binary bodies (docs/API.md).
const (
	mediaBatch     = "application/x-sketch-batch"
	mediaKeys      = "application/x-sketch-keys"
	mediaEstimates = "application/x-sketch-estimates"
	mediaDelta     = "application/x-sketch-delta"
)

// The sketch shape every daemon and ladder rung uses apart from the width,
// which is the workload's: the daemon's own defaults.
const (
	defaultWidth = 4096
	sketchDepth  = 4
	sketchK      = 64
	sketchSeed   = 1
	gossipEvery  = 50 * time.Millisecond
)

// Daemons ---------------------------------------------------------------------

// daemon is one in-process sketchd: exactly what cmd/sketchd wraps, a
// server.Server behind an http.Server on a loopback socket, plus the SKS1
// listener when the workload streams.
type daemon struct {
	srv        *server.Server
	hs         *http.Server
	url        string
	streamAddr string
	served     chan struct{} // closed when hs.Serve has returned
}

// startDaemons starts n daemons of the given sketch width; with n > 1 they
// form a full gossip mesh. Only node 0 gets a stream listener.
func startDaemons(n, width int, withStream bool) ([]*daemon, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	var ds []*daemon
	fail := func(err error) ([]*daemon, error) {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
		closeDaemons(ds)
		return nil, err
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i, ln := range lns {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		srv, err := server.New(server.Config{
			Width:       width,
			Peers:       peers,
			GossipEvery: gossipEvery,
			NodeID:      fmt.Sprintf("node-%d", i),
		})
		if err != nil {
			return fail(err)
		}
		d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: urls[i], served: make(chan struct{})}
		lns[i] = nil // owned by hs from here on
		go func() {
			defer close(d.served)
			d.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}()
		ds = append(ds, d)
		if withStream && i == 0 {
			sln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(err)
			}
			d.streamAddr = sln.Addr().String()
			go srv.ServeStream(sln) // srv.Close closes sln and waits for the accept loop
		}
	}
	return ds, nil
}

// closeDaemons closes every server (each makes its last gossip push while its
// peers still listen), then every HTTP front, and waits for the serve loops.
func closeDaemons(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, d := range ds {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := d.hs.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
		<-d.served
	}
	return first
}

// newHandlerServer builds a daemon without any socket, for the ladder's
// handler rung: requests go straight to ServeHTTP.
func newHandlerServer(width int) (h http.Handler, closeFn func() error, err error) {
	srv, err := server.New(server.Config{Width: width})
	if err != nil {
		return nil, nil, err
	}
	return srv.Handler(), srv.Close, nil
}

// Clients ---------------------------------------------------------------------

// daemonStats is the part of /v1/stats the benchmark reads.
type daemonStats struct {
	totalMass                                      float64
	batches, streamFrames                          int64
	epochHits, epochMisses                         int64
	deltasApplied, deltasDuplicate, deltasRejected int64
	gossipFramesAcked, gossipBytesShipped          int64 // summed over peers
}

type apiClient struct{ c *server.Client }

func newAPIClient(url string, hc *http.Client) apiClient {
	return apiClient{server.NewClient(url, hc)}
}

// post ships one SKB1 body to POST /v1/update and waits for the answer.
func (c apiClient) post(items []uint64, deltas []float64) error {
	return c.c.UpdateColumns(context.Background(), items, deltas)
}

func (c apiClient) snapshot() ([]byte, error) { return c.c.Snapshot(context.Background()) }

func (c apiClient) stats() (daemonStats, error) {
	st, err := c.c.Stats(context.Background())
	if err != nil {
		return daemonStats{}, err
	}
	out := daemonStats{
		totalMass: st.TotalMass, batches: st.Batches, streamFrames: st.StreamFrames,
		epochHits: st.EpochHits, epochMisses: st.EpochMisses,
		deltasApplied: st.DeltasApplied, deltasDuplicate: st.DeltasDuplicate, deltasRejected: st.DeltasRejected,
	}
	for _, p := range st.Peers {
		out.gossipFramesAcked += p.FramesAcked
		out.gossipBytesShipped += p.BytesShipped
	}
	return out, nil
}

// querier answers SKQ1 key columns over POST /v1/query with reused buffers;
// the answer is valid until the next query.
type querier struct{ q *server.BatchQuerier }

func (c apiClient) querier() querier { return querier{c.c.BatchQuerier()} }

func (q querier) query(keys []uint64) ([]float64, error) {
	ests, _, err := q.q.Query(context.Background(), keys)
	return ests, err
}

// streamClient is one SKS1 connection over raw TCP.
type streamClient struct{ su *server.StreamUpdater }

func dialStream(addr string, frame int) (streamClient, error) {
	su, err := server.DialStream(addr, server.StreamConfig{Window: 64, BatchSize: frame})
	return streamClient{su}, err
}

// send frames the columns (at most one frame's worth) onto the connection.
func (s streamClient) send(items []uint64, deltas []float64) error {
	return s.su.UpdateColumns(items, deltas)
}

// sync flushes and waits until the daemon has acked every frame sent.
func (s streamClient) sync() error  { return s.su.Sync() }
func (s streamClient) close() error { return s.su.Close() }

// Sketches --------------------------------------------------------------------

// counters is a bare Count-Min: the reference run and the sketch rung.
type counters struct{ cm *sketch.CountMin }

func (s counters) empty() counters                    { return counters{s.cm.Clone()} }
func (s counters) update(items []uint64, d []float64) { s.cm.UpdateBatch(items, d) }
func (s counters) merge(o counters) error             { return s.cm.Merge(o.cm) }
func (s counters) estimate(keys []uint64, dst []float64) {
	s.cm.EstimateBatch(keys, dst)
}
func (s counters) mass() float64 { return s.cm.TotalMass() }

// hhTracker is the daemon's replica type: Count-Min plus the top-k heap.
type hhTracker struct{ t *sketch.HeavyHitterTracker }

func newTracker(width int) hhTracker {
	return hhTracker{sketch.NewHeavyHitterTracker(xrand.New(sketchSeed), width, sketchDepth, sketchK)}
}

// decodeTracker decodes a daemon's /v1/snapshot body, hashers included.
func decodeTracker(snapshot []byte) (hhTracker, error) {
	t := new(sketch.HeavyHitterTracker)
	err := t.UnmarshalBinary(snapshot)
	return hhTracker{t}, err
}

func (t hhTracker) counters() counters                 { return counters{t.t.Backing()} }
func (t hhTracker) update(items []uint64, d []float64) { t.t.UpdateBatch(items, d) }
func (t hhTracker) copy() hhTracker                    { return hhTracker{t.t.Copy()} }
func (t hhTracker) sub(o hhTracker) error              { return t.t.Sub(o.t) }
func (t hhTracker) merge(o hhTracker) error            { return t.t.Merge(o.t) }
func (t hhTracker) marshal() ([]byte, error)           { return t.t.MarshalBinary() }

// estimateScratch is a reader's private kernel scratch.
type estimateScratch struct{ sc sketch.EstimateScratch }

func (t hhTracker) estimate(keys []uint64, dst []float64, sc *estimateScratch) {
	t.t.EstimateBatchWith(keys, dst, &sc.sc)
}

func encodeDelta(inner []byte) []byte         { return sketch.EncodeDelta(inner) }
func decodeDelta(data []byte) ([]byte, error) { return sketch.DecodeDelta(data) }

// rowHashers are the bucket hashers of one Count-Min: one per row, of the
// family and range a sketch of this width uses.
type rowHashers []hashing.Hasher

func newRowHashers(width int) rowHashers {
	r := xrand.New(sketchSeed)
	hs := make(rowHashers, sketchDepth)
	for i := range hs {
		hs[i] = hashing.NewHasher(hashing.FamilyPoly2, r, uint64(width))
	}
	return hs
}

// hash runs every row's batch kernel over keys; dst is overwritten per row.
func (hs rowHashers) hash(keys, dst []uint64) {
	for _, h := range hs {
		hashing.HashBatch(h, keys, dst)
	}
}

// Engine ----------------------------------------------------------------------

// ingestEngine is the sharded engine over tracker replicas at its default
// Config, the way the daemon builds it.
type ingestEngine struct {
	e *engine.Engine[*sketch.HeavyHitterTracker]
}

type ingestProducer struct {
	p *engine.Producer[*sketch.HeavyHitterTracker]
}

func newIngestEngine(proto hhTracker) ingestEngine {
	return ingestEngine{engine.NewTracker(engine.Config{}, proto.t)}
}

func (e ingestEngine) producer() ingestProducer { return ingestProducer{e.e.Producer()} }
func (e ingestEngine) counterWords() int        { return e.e.CounterWords() }
func (e ingestEngine) close() error             { _, err := e.e.Close(); return err }

// snapshot cuts a barrier snapshot: every flushed batch is in it.
func (e ingestEngine) snapshot() (hhTracker, error) {
	t, err := e.e.Snapshot()
	return hhTracker{t}, err
}

// readSnapshot returns the pinned read epoch, rebuilding it if a write
// happened since it was cut.
func (e ingestEngine) readSnapshot() error {
	_, _, err := e.e.ReadSnapshot()
	return err
}

func (e ingestEngine) estimate(keys []uint64, dst []float64) error {
	_, err := e.e.EstimateBatch(keys, dst)
	return err
}

func (p ingestProducer) update(items []uint64, d []float64) { p.p.UpdateColumns(items, d) }
func (p ingestProducer) flush()                             { p.p.Flush() }
func (p ingestProducer) close()                             { p.p.Close() }

// Wire codecs, one pair per framed format -------------------------------------

func appendSKB1(buf []byte, items []uint64, deltas []float64) []byte {
	return server.AppendBatchColumns(buf, items, deltas)
}

func decodeSKB1(data []byte, items []uint64, deltas []float64) ([]uint64, []float64, error) {
	return server.DecodeBatchColumns(data, items, deltas)
}

// appendSKS1Data appends one stream data frame: the frame's seq, then the
// SKB1 batch, inside the SKS1 envelope. scratch carries the payload buffer
// between calls.
func appendSKS1Data(buf, scratch []byte, seq uint64, items []uint64, deltas []float64) (frame, payload []byte) {
	payload = binary.BigEndian.AppendUint64(scratch[:0], seq)
	payload = server.AppendBatchColumns(payload, items, deltas)
	return server.AppendStreamFrame(buf, server.StreamFrame{Payload: payload}), payload
}

// decodeSKS1Data parses one data frame back into columns.
func decodeSKS1Data(data []byte, items []uint64, deltas []float64) ([]uint64, []float64, error) {
	f, _, err := server.DecodeStreamFrame(data, 0)
	if err != nil {
		return items, deltas, err
	}
	if len(f.Payload) < 8 {
		return items, deltas, fmt.Errorf("stream data frame payload is %d bytes", len(f.Payload))
	}
	return server.DecodeBatchColumns(f.Payload[8:], items, deltas)
}

func appendSKQ1(buf []byte, keys []uint64) []byte { return server.AppendKeyColumns(buf, keys) }

func decodeSKQ1(data []byte, keys []uint64) ([]uint64, error) {
	return server.DecodeKeyColumns(data, keys)
}

func appendSKE1(buf []byte, gen int64, ests []float64) []byte {
	return server.AppendEstimateColumns(buf, gen, ests)
}

func decodeSKE1(data []byte, ests []float64) ([]float64, error) {
	ests, _, err := server.DecodeEstimateColumns(data, ests)
	return ests, err
}

func appendSKD1(buf []byte, sender string, fromGen, toGen uint64, payload []byte) []byte {
	return server.AppendDeltaFrame(buf, server.DeltaFrame{Sender: sender, FromGen: fromGen, ToGen: toGen, Payload: payload})
}

func decodeSKD1(data []byte) (payload []byte, err error) {
	f, err := server.DecodeDeltaFrame(data)
	return f.Payload, err
}
