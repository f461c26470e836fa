package main

import (
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"
)

// workload is one traffic shape. Every workload has one writer and at most
// one concurrent reader: on a two-core box that leaves a core to the daemon,
// and a second closed-loop client made the rate swing by a seventh between
// runs when the shapes were sized.
type workload struct {
	name string
	why  string
	// width is the sketch width of every daemon; depth 4 and k 64 are the
	// daemon's defaults.
	width int
	nodes int // daemons; more than one is a full gossip mesh fed at node 0
	// A write op is framesPerOp frames of frame updates followed by the
	// daemon's ack: one POST, or stream frames and a Sync.
	frame       int
	framesPerOp int
	stream      bool
	// paceHz > 0 makes the writer open-loop: op k is due at k/paceHz and its
	// latency is timed from then, however late the generator ran.
	paceHz float64
	// mixedReader runs the closed-loop reader beside the writer for the whole
	// run. Otherwise the reads are a quiescent probe after the writes, every
	// answer checked against the reference.
	mixedReader bool
}

var workloads = []workload{
	{
		name: "post_small", width: defaultWidth, nodes: 1, frame: 256, framesPerOp: 1,
		why: "256-update POSTs: the round trip (~90us) dwarfs the handler's work (~8us), so handler, lane and loopback changes show and hash/kernel changes do not",
	},
	{
		name: "stream_bulk", width: 65536, nodes: 1, frame: 4096, framesPerOp: 8, stream: true,
		why: "4096-update SKS1 frames over raw TCP into 2 MiB of counters: no HTTP on the path, so hashing/sketch/engine kernels and wire decode show and handler changes do not",
	},
	{
		name: "query_mixed", width: defaultWidth, nodes: 1, frame: 256, framesPerOp: 1, stream: true, paceHz: 2000, mixedReader: true,
		why: "open-loop 512k updates/s beside a closed-loop 1024-key reader: about half the reads rebuild the epoch; the paced writer keeps a faster write path from changing the read load",
	},
	{
		name: "mesh_gossip", width: 65536, nodes: 3, frame: 4096, framesPerOp: 1,
		why: "3-node full mesh fed at one node, 50ms gossip: the only workload that runs the replicator (barrier snapshot, Copy/Sub, encode, /v1/delta apply, per-sender trackers)",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func (wl workload) opSize() int { return wl.frame * wl.framesPerOp }

// countingTransport counts the request payload bytes a client sends.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.bytes.Add(r.ContentLength)
	}
	return t.base.RoundTrip(r)
}

func newHTTPClient() (*http.Client, *countingTransport) {
	tr := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr
}

// Span ids inside one traced op. A stream op's frames take the ids from
// spanFirstFrame up, and its sync the one after the last frame. Reads take
// their op ids from windowReadBase, clear of the writes'.
const (
	spanRoot       uint8 = 1
	spanFirstFrame uint8 = 2

	windowReadBase = uint64(1) << 32
)

// writer sends write ops and waits for the daemon's ack of each.
type writer struct {
	wl workload
	in *input
	c  apiClient          // POST workloads
	tr *countingTransport // POST workloads
	su streamClient       // stream workloads
	// frameBytes is the size of one SKS1 data frame of wl.frame updates and
	// sent the number of frames written; together the stream's payload bytes.
	frameBytes int
	sent       int64
}

func newWriter(wl workload, in *input, d *daemon) (*writer, error) {
	w := &writer{wl: wl, in: in}
	if !wl.stream {
		var hc *http.Client
		hc, w.tr = newHTTPClient()
		w.c = newAPIClient(d.url, hc)
		return w, nil
	}
	var err error
	if w.su, err = dialStream(d.streamAddr, wl.frame); err != nil {
		return nil, err
	}
	frame, _ := appendSKS1Data(nil, nil, 1, in.items[:wl.frame], in.deltas[:wl.frame])
	w.frameBytes = len(frame)
	return w, nil
}

// write performs op number op (its updates are the op-th opSize slice of the
// cycled column) and returns once the daemon has acked it. waitStart is when
// the producer began waiting for that ack: the start of the POST, or the
// Sync that follows the stream frames.
func (w *writer) write(op int, rec *recorder) (waitStart time.Time, err error) {
	size := w.wl.opSize()
	off := (op * size) % columnLen
	start := time.Now()
	if !w.wl.stream {
		err = w.c.post(w.in.items[off:off+size], w.in.deltas[off:off+size])
		rec.add(uint64(op), spanRoot, 0, "client.post", start, time.Now())
		return start, err
	}
	t := start
	for f := 0; f < w.wl.framesPerOp; f++ {
		lo := off + f*w.wl.frame
		if err = w.su.send(w.in.items[lo:lo+w.wl.frame], w.in.deltas[lo:lo+w.wl.frame]); err != nil {
			return start, err
		}
		w.sent++
		if rec != nil {
			now := time.Now()
			rec.add(uint64(op), spanFirstFrame+uint8(f), spanRoot, "client.stream_frame", t, now)
			t = now
		}
	}
	waitStart = time.Now()
	err = w.su.sync()
	if rec != nil {
		now := time.Now()
		rec.add(uint64(op), spanFirstFrame+uint8(w.wl.framesPerOp), spanRoot, "client.sync", waitStart, now)
		rec.add(uint64(op), spanRoot, 0, "client.stream_op", start, now)
	}
	return waitStart, err
}

// payloadBytes is the total request payload the writer has put on the wire.
func (w *writer) payloadBytes() int64 {
	if w.wl.stream {
		return w.sent * int64(w.frameBytes)
	}
	return w.tr.bytes.Load()
}

func (w *writer) close() error {
	if w.wl.stream {
		return w.su.close()
	}
	w.tr.base.CloseIdleConnections()
	return nil
}

// reader issues 1024-key batch reads, rotating through the query columns.
type reader struct {
	in *input
	q  querier
	tr *countingTransport
	n  int // reads issued so far; picks the column
}

func newReader(in *input, d *daemon) *reader {
	hc, tr := newHTTPClient()
	return &reader{in: in, q: newAPIClient(d.url, hc).querier(), tr: tr}
}

// read issues the next read and returns which column it asked for and the
// answer (valid until the next read).
func (r *reader) read(rec *recorder) (col int, ests []float64, err error) {
	col = r.n % queryCols
	start := time.Now()
	ests, err = r.q.query(r.in.qcols[col])
	rec.add(windowReadBase+uint64(r.n), spanRoot, 0, "client.query", start, time.Now())
	r.n++
	return col, ests, err
}

func (r *reader) close() { r.tr.base.CloseIdleConnections() }

// bench is one set-up system: the inputs, the daemons, the clients, and the
// reference that says what every daemon must answer.
type bench struct {
	wl      workload
	in      *input
	daemons []*daemon
	ctl     []apiClient // one control client per daemon
	ctlTr   []*countingTransport
	w       *writer
	r       *reader
	ref     *reference
	acked   int // write ops acked since the daemons started
	// heapBase is the live heap the harness held (the inputs, mostly) before
	// the daemons started; live_heap_mb is what the run holds beyond it.
	heapBase float64
}

// setUp generates the inputs from the seed, starts the daemons, builds the
// reference from an empty daemon's snapshot, sends one full pass of the
// column as warm-up and checks every daemon answers exactly what the
// reference does. Its duration is the benchmark's setup_s.
func setUp(wl workload, seed uint64) (*bench, error) {
	b := &bench{wl: wl, in: generate(seed)}
	b.heapBase = liveHeapMiB()
	var err error
	if b.daemons, err = startDaemons(wl.nodes, wl.width, wl.stream); err != nil {
		return nil, err
	}
	for _, d := range b.daemons {
		hc, tr := newHTTPClient()
		b.ctl = append(b.ctl, newAPIClient(d.url, hc))
		b.ctlTr = append(b.ctlTr, tr)
	}
	fail := func(err error) (*bench, error) {
		b.close()
		return nil, err
	}
	snap, err := b.ctl[0].snapshot()
	if err != nil {
		return fail(fmt.Errorf("fetching the empty snapshot: %w", err))
	}
	if b.ref, err = newReference(snap, b.in); err != nil {
		return fail(err)
	}
	if b.w, err = newWriter(wl, b.in, b.daemons[0]); err != nil {
		return fail(err)
	}
	// Reads go to the last node: on the mesh that is a replica which holds
	// the data only through gossip deltas.
	b.r = newReader(b.in, b.daemons[len(b.daemons)-1])

	for op := 0; op < columnLen/wl.opSize(); op++ {
		if _, err := b.w.write(op, nil); err != nil {
			return fail(fmt.Errorf("warm-up op %d: %w", op, err))
		}
		b.acked++
	}
	if _, _, err := b.settle(); err != nil {
		return fail(err)
	}
	return b, nil
}

func (b *bench) close() error {
	var first error
	if b.w != nil {
		first = b.w.close()
	}
	if b.r != nil {
		b.r.close()
	}
	if err := closeDaemons(b.daemons); err != nil && first == nil {
		first = err
	}
	for _, tr := range b.ctlTr {
		tr.base.CloseIdleConnections()
	}
	return first
}

// ackedUpdates is how many updates the daemons have acked since they started.
func (b *bench) ackedUpdates() int { return b.acked * b.wl.opSize() }

// settle builds the reference for the updates acked so far, once, waits until
// every daemon holds their total mass (on one node the ack already implies
// it; on the mesh it takes a gossip tick or two) and then demands bit-exact
// agreement with that single-threaded run: every daemon's answer to the dense
// query column must equal the reference sketch's, bit for bit. It returns the
// reference and how long the daemons took to converge.
func (b *bench) settle() (counters, time.Duration, error) {
	ref := b.ref.at(b.ackedUpdates())
	start := time.Now()
	for i := 0; i < len(b.ctl); {
		st, err := b.ctl[i].stats()
		switch {
		case err != nil:
			return ref, 0, fmt.Errorf("polling node %d: %w", i, err)
		case st.totalMass == ref.mass():
			i++
		case time.Since(start) > 20*time.Second:
			return ref, 0, fmt.Errorf("node %d holds total mass %v after 20s, the acked updates sum to %v", i, st.totalMass, ref.mass())
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	converged := time.Since(start)
	want := make([]float64, len(b.in.dense))
	ref.estimate(b.in.dense, want)
	for i, c := range b.ctl {
		got, err := c.querier().query(b.in.dense)
		if err != nil {
			return ref, 0, err
		}
		if j := firstDiff(got, want); j >= 0 {
			return ref, 0, fmt.Errorf("node %d answers %v for dense key %d, the reference answers %v", i, got[j], b.in.dense[j], want[j])
		}
	}
	return ref, converged, nil
}

// firstDiff returns the first index at which two equally long columns differ
// in their bits, -1 when they are identical.
func firstDiff(got, want []float64) int {
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return j
		}
	}
	return -1
}
