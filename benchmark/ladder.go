package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"
)

// The ladder replays the first frames of the run's own input, on one
// goroutine, through each layer's exported entry points in turn: the hash
// kernels, the SNIPPETS.md baseline, the sketch, its encodings, the engine,
// the wire codecs, the HTTP handlers without a socket, and the same calls over
// a loopback socket into an idle daemon. One ladder op is one frame of the
// workload's size (or one 1024-key read), every call on it is a span under the
// op's id, and a span's parent is the rung above it:
//
//	client.post -> server.update_handler -> { wire.skb1_decode, engine.ingest }
//	client.stream_frame_sync -> wire.sks1_decode
//	sketch.tracker_update -> sketch.cm_update -> hashing.hash
//	client.query -> server.query_handler -> { wire.skq1_decode, sketch.estimate, wire.ske1_encode }
//
// so a rung's self time (selfTimes) is what it adds over the rungs below.

const (
	ladderMaxFrames = 2000
	ladderUpdates   = 1 << 21 // cap on the updates one rung replays
	ladderReads     = 2000
	ladderReps      = 15 // repetitions of each whole-sketch call

	// Op ids of the ladder, clear of the traced window's.
	ladderFrameBase = uint64(1) << 40
	ladderReadBase  = uint64(1) << 41
	ladderOpBase    = uint64(1) << 42 // the workload's own write op
)

// Span ids within one ladder op.
const (
	lsPost uint8 = iota + 1
	lsUpdateHandler
	lsSKB1Decode
	lsIngest
	lsStreamFrame
	lsSKS1Decode
	lsTracker
	lsCountMin
	lsHash
	lsBaseline
	lsSKB1Encode
	lsSKS1Encode

	lsQuery
	lsQueryHandler
	lsSKQ1Decode
	lsEstimate
	lsSKE1Encode
	lsEngineEstimate
	lsBaselineEstimate
)

type ladder struct {
	wl     workload
	in     *input
	rec    *recorder
	frames int
}

func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func sumNs(ds []int64) float64 {
	var s float64
	for _, d := range ds {
		s += float64(d)
	}
	return s
}

func medianNs(ds []int64) float64 { return percentileOf(ds, 50) }

// frame returns the columns of ladder op i: the i-th frame of the column.
func (l *ladder) frame(i int) ([]uint64, []float64) {
	off := (i * l.wl.frame) % columnLen
	return l.in.items[off : off+l.wl.frame], l.in.deltas[off : off+l.wl.frame]
}

// spans runs fn n times, spanning each call under op id base+i, and returns
// the durations. prep, when non-nil, runs before each call outside the span.
func (l *ladder) spans(name string, base uint64, n int, id, parent uint8, prep, fn func(i int)) []int64 {
	out := make([]int64, n)
	for i := range out {
		if prep != nil {
			prep(i)
		}
		start := time.Now()
		fn(i)
		end := time.Now()
		l.rec.add(base+uint64(i), id, parent, name, start, end)
		out[i] = int64(end.Sub(start))
	}
	return out
}

// writes spans fn once per ladder frame.
func (l *ladder) writes(name string, id, parent uint8, prep, fn func(i int)) []int64 {
	return l.spans(name, ladderFrameBase, l.frames, id, parent, prep, fn)
}

// reads spans fn once per ladder read: call i gets query column i mod queryCols.
func (l *ladder) reads(name string, id, parent uint8, prep, fn func(keys []uint64)) []int64 {
	col := func(i int) []uint64 { return l.in.qcols[i%queryCols] }
	var p func(int)
	if prep != nil {
		p = func(i int) { prep(col(i)) }
	}
	return l.spans(name, ladderReadBase, ladderReads, id, parent, p, func(i int) { fn(col(i)) })
}

// repeatMs runs fn ladderReps times and returns the median duration in ms.
// prep, when non-nil, runs before each call untimed.
func repeatMs(prep, fn func()) float64 {
	ds := make([]int64, ladderReps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		start := time.Now()
		fn()
		ds[i] = int64(time.Since(start))
	}
	return medianNs(ds) / 1e6
}

// runLadder measures every layer at the workload's sketch width and frame
// size. It returns the per-layer metrics the ladder owns and the median
// duration, in ns, of the workload's own write op against an idle daemon.
func runLadder(wl workload, in *input, rec *recorder) (map[string]float64, float64, error) {
	l := &ladder{wl: wl, in: in, rec: rec, frames: min(ladderMaxFrames, ladderUpdates/wl.frame)}
	updates := float64(l.frames * wl.frame)
	keys := float64(ladderReads * queryKeys)
	m := make(map[string]float64)
	firstSpan := len(rec.spans)

	// hashing: every row's batch kernel over the frame's keys.
	hashers := newRowHashers(wl.width)
	buckets := make([]uint64, wl.frame)
	hashNs := l.writes("hashing.hash", lsHash, lsCountMin, nil, func(i int) {
		items, _ := l.frame(i)
		hashers.hash(items, buckets)
	})
	m["hashing.hash_ns_per_key"] = sumNs(hashNs) / updates

	// baseline: the exemplar's scalar add and estimate.
	base := newBaselineCM(wl.width, sketchDepth, sketchSeed)
	baseNs := l.writes("baseline.cm_add", lsBaseline, 0, nil, func(i int) {
		items, deltas := l.frame(i)
		for j, x := range items {
			base.add(x, uint64(deltas[j]))
		}
	})
	m["baseline.cm_add_ns_per_update"] = sumNs(baseNs) / updates
	var sink uint64
	baseEstNs := l.reads("baseline.cm_estimate", lsBaselineEstimate, 0, nil, func(keys []uint64) {
		for _, k := range keys {
			sink += base.estimate(k)
		}
	})
	m["baseline.cm_estimate_ns_per_key"] = sumNs(baseEstNs) / keys
	if sink == 0 {
		return nil, 0, fmt.Errorf("baseline sketch estimated nothing")
	}

	// sketch: the bare Count-Min, then the tracker the daemon's replicas are.
	cm := newTracker(wl.width).counters()
	cmNs := l.writes("sketch.cm_update", lsCountMin, lsTracker, nil, func(i int) { cm.update(l.frame(i)) })
	m["sketch.cm_update_ns_per_update"] = sumNs(cmNs) / updates
	tr := newTracker(wl.width)
	mallocs := mallocCount()
	trNs := l.writes("sketch.tracker_update", lsTracker, 0, nil, func(i int) { tr.update(l.frame(i)) })
	m["sketch.update_allocs_per_op"] = float64(mallocCount()-mallocs) / float64(l.frames)
	trackerNs := sumNs(trNs) / updates
	m["sketch.tracker_update_ns_per_update"] = trackerNs
	// The sketch layer's two rungs together, over the hashing below them.
	m["sketch.update_self_ns"] = trackerNs - m["hashing.hash_ns_per_key"]

	ests := make([]float64, queryKeys)
	var sc estimateScratch
	tr.estimate(in.qcols[0], ests, &sc) // grow the scratch once
	mallocs = mallocCount()
	estNs := l.reads("sketch.estimate", lsEstimate, lsQueryHandler, nil, func(keys []uint64) { tr.estimate(keys, ests, &sc) })
	m["sketch.estimate_allocs_per_op"] = float64(mallocCount()-mallocs) / ladderReads
	m["sketch.estimate_ns_per_key"] = sumNs(estNs) / keys

	// What a gossip tick does to whole sketches. older is the state three
	// quarters of the way through the frames, so tr - older is a tick's delta.
	older := newTracker(wl.width)
	for i := 0; i < l.frames*3/4; i++ {
		older.counters().update(l.frame(i))
	}
	var scratch hhTracker
	m["sketch.copy_ms"] = repeatMs(nil, func() { scratch = tr.copy() })
	var err error
	m["sketch.sub_ms"] = repeatMs(func() { scratch = tr.copy() }, func() { err = scratch.sub(older) })
	if err != nil {
		return nil, 0, err
	}
	delta := scratch // tr - older
	m["sketch.merge_ms"] = repeatMs(func() { scratch = older.copy() }, func() { err = scratch.merge(delta) })
	if err != nil {
		return nil, 0, err
	}

	// sketch.encoding: the snapshot and delta byte formats.
	var snapshot, inner, enc []byte
	m["encoding.marshal_ms"] = repeatMs(nil, func() { snapshot, err = tr.marshal() })
	if err != nil {
		return nil, 0, err
	}
	m["encoding.snapshot_bytes"] = float64(len(snapshot))
	m["encoding.unmarshal_ms"] = repeatMs(nil, func() { _, err = decodeTracker(snapshot) })
	if err != nil {
		return nil, 0, err
	}
	if inner, err = delta.marshal(); err != nil {
		return nil, 0, err
	}
	m["encoding.delta_encode_ms"] = repeatMs(nil, func() { enc = encodeDelta(inner) })
	m["encoding.delta_bytes"] = float64(len(enc))
	m["encoding.delta_decode_ms"] = repeatMs(nil, func() { _, err = decodeDelta(enc) })
	if err != nil {
		return nil, 0, err
	}

	// engine: the sharded engine at its default Config, fed frame by frame the
	// way the daemon feeds it. The workers apply batches off the producer's
	// path and push back when their queues fill, so two passes: back to back to
	// a closing barrier for the sustained rate (its self time in CPU, not wall,
	// terms), then spanned with the queues drained before each frame for what
	// the producer's side of one frame costs.
	eng := newIngestEngine(newTracker(wl.width))
	p := eng.producer()
	ingest := func(i int) {
		p.update(l.frame(i))
		p.flush()
	}
	drainEngine := func(int) { _, err = eng.snapshot() }
	mallocs = mallocCount()
	cpu, start := cpuNs(), time.Now()
	for i := 0; i < l.frames; i++ {
		ingest(i)
	}
	drainEngine(0)
	wall := time.Since(start)
	m["engine.ingest_ns_per_update"] = float64(wall) / updates
	m["engine.ingest_self_ns"] = float64(cpuNs()-cpu)/updates - trackerNs
	m["engine.ingest_allocs_per_op"] = float64(mallocCount()-mallocs) / float64(l.frames)
	l.writes("engine.ingest", lsIngest, lsUpdateHandler, drainEngine, ingest)
	if err != nil {
		return nil, 0, err
	}
	one := func() {
		p.update(in.items[:1], in.deltas[:1])
		p.flush()
	}
	m["engine.snapshot_ms"] = repeatMs(one, func() { _, err = eng.snapshot() })
	if err != nil {
		return nil, 0, err
	}
	m["engine.epoch_rebuild_us"] = 1e3 * repeatMs(one, func() { err = eng.readSnapshot() })
	if err != nil {
		return nil, 0, err
	}
	const hits = 1000
	m["engine.epoch_hit_ns"] = 1e6 / hits * repeatMs(nil, func() {
		for i := 0; i < hits; i++ {
			err = eng.readSnapshot()
		}
	})
	if err != nil {
		return nil, 0, err
	}
	engEstNs := l.reads("engine.estimate", lsEngineEstimate, 0, nil, func(keys []uint64) { err = eng.estimate(keys, ests) })
	if err != nil {
		return nil, 0, err
	}
	m["engine.estimate_ns_per_key"] = sumNs(engEstNs) / keys
	m["engine.counter_mb"] = float64(eng.counterWords()) * 8 / (1 << 20)
	p.close()
	if err := eng.close(); err != nil {
		return nil, 0, err
	}

	// server.wire: each framed format, encode and decode, into reused buffers.
	var (
		body, frame, payload []byte
		items                = make([]uint64, 0, wl.frame)
		deltas               = make([]float64, 0, wl.frame)
		bytesOut             int
	)
	encodeSKB1 := func(i int) {
		it, d := l.frame(i)
		body = appendSKB1(body[:0], it, d)
	}
	encodeSKS1 := func(i int) {
		it, d := l.frame(i)
		frame, payload = appendSKS1Data(frame[:0], payload, uint64(i), it, d)
	}
	encNs := l.writes("wire.skb1_encode", lsSKB1Encode, 0, nil, func(i int) {
		encodeSKB1(i)
		bytesOut += len(body)
	})
	m["wire.skb1_encode_ns_per_update"] = sumNs(encNs) / updates
	m["wire.skb1_bytes_per_update"] = float64(bytesOut) / updates
	mallocs = mallocCount()
	decNs := l.writes("wire.skb1_decode", lsSKB1Decode, lsUpdateHandler, encodeSKB1, func(int) {
		items, deltas, err = decodeSKB1(body, items[:0], deltas[:0])
	})
	if err != nil {
		return nil, 0, err
	}
	m["wire.decode_allocs_per_op"] = float64(mallocCount()-mallocs) / float64(l.frames)
	m["wire.skb1_decode_ns_per_update"] = sumNs(decNs) / updates
	encNs = l.writes("wire.sks1_encode", lsSKS1Encode, 0, nil, encodeSKS1)
	m["wire.sks1_encode_ns_per_update"] = sumNs(encNs) / updates
	decNs = l.writes("wire.sks1_decode", lsSKS1Decode, lsStreamFrame, encodeSKS1, func(int) {
		items, deltas, err = decodeSKS1Data(frame, items[:0], deltas[:0])
	})
	if err != nil {
		return nil, 0, err
	}
	m["wire.sks1_decode_ns_per_update"] = sumNs(decNs) / updates
	qkeys := make([]uint64, 0, queryKeys)
	qNs := l.reads("wire.skq1_decode", lsSKQ1Decode, lsQueryHandler,
		func(keys []uint64) { body = appendSKQ1(body[:0], keys) },
		func([]uint64) { qkeys, err = decodeSKQ1(body, qkeys[:0]) })
	if err != nil {
		return nil, 0, err
	}
	m["wire.skq1_decode_ns_per_key"] = sumNs(qNs) / keys
	qNs = l.reads("wire.ske1_encode", lsSKE1Encode, lsQueryHandler, nil,
		func([]uint64) { body = appendSKE1(body[:0], 1, ests) })
	m["wire.ske1_encode_ns_per_key"] = sumNs(qNs) / keys
	if _, err := decodeSKE1(body, nil); err != nil {
		return nil, 0, err
	}
	var deltaFrame []byte
	m["wire.skd1_encode_ms"] = repeatMs(nil, func() { deltaFrame = appendSKD1(deltaFrame[:0], "ladder", 0, 1, enc) })
	m["wire.skd1_decode_ms"] = repeatMs(nil, func() { _, err = decodeSKD1(deltaFrame) })
	if err != nil {
		return nil, 0, err
	}

	// server: the handlers with no socket under them.
	h, closeHandler, err := newHandlerServer(wl.width)
	if err != nil {
		return nil, 0, err
	}
	defer closeHandler()
	var req *http.Request
	var rr *httptest.ResponseRecorder
	request := func(method, path, contentType, accept string, b []byte) {
		req = httptest.NewRequest(method, path, bytes.NewReader(b))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rr = httptest.NewRecorder()
	}
	serve := func() {
		h.ServeHTTP(rr, req)
		if err == nil && rr.Code != http.StatusOK {
			err = fmt.Errorf("%s %s answered HTTP %d: %s", req.Method, req.URL.Path, rr.Code, rr.Body.String())
		}
	}
	// allocsPerServe prepares n requests up front, serves them back to back and
	// returns the allocations per request made inside ServeHTTP.
	const allocRuns = 200
	allocsPerServe := func(prepare func(i int)) float64 {
		reqs, rrs := make([]*http.Request, allocRuns), make([]*httptest.ResponseRecorder, allocRuns)
		for i := range reqs {
			prepare(i)
			reqs[i], rrs[i] = req, rr
		}
		before := mallocCount()
		for i := range reqs {
			req, rr = reqs[i], rrs[i]
			serve()
		}
		return float64(mallocCount()-before) / allocRuns
	}
	update := func(i int) {
		encodeSKB1(i)
		request(http.MethodPost, "/v1/update", mediaBatch, "", bytes.Clone(body))
	}
	query := func(keys []uint64) {
		request(http.MethodPost, "/v1/query", mediaKeys, mediaEstimates, appendSKQ1(nil, keys))
	}
	// GET /v1/stats cuts a barrier snapshot, which drains the engine's queues:
	// the update that follows is timed without the workers pushing back.
	handlerNs := l.writes("server.update_handler", lsUpdateHandler, lsPost,
		func(i int) {
			request(http.MethodGet, "/v1/stats", "", "", nil)
			serve()
			update(i)
		},
		func(int) { serve() })
	m["server.update_handler_us"] = medianNs(handlerNs) / 1e3
	m["server.update_allocs_per_req"] = allocsPerServe(update)
	queryNs := l.reads("server.query_handler", lsQueryHandler, lsQuery, query, func([]uint64) { serve() })
	m["server.query_handler_us"] = medianNs(queryNs) / 1e3
	m["server.query_allocs_per_req"] = allocsPerServe(func(i int) { query(in.qcols[i%queryCols]) })
	if err != nil {
		return nil, 0, err
	}
	gen := uint64(0)
	m["server.delta_handler_ms"] = repeatMs(
		func() {
			deltaFrame = appendSKD1(deltaFrame[:0], "ladder", gen, gen+1, enc)
			gen++
			request(http.MethodPost, "/v1/delta", mediaDelta, "", deltaFrame)
		}, serve)
	if err != nil {
		return nil, 0, err
	}
	m["server.snapshot_handler_ms"] = repeatMs(func() { request(http.MethodGet, "/v1/snapshot", "", "", nil) }, serve)
	if err != nil {
		return nil, 0, err
	}

	// The same calls over a loopback socket into an idle daemon (its queues
	// drained by a stats call before each): one POST of a frame, one stream
	// frame and its ack, one read — and the workload's own write op, which is
	// what the traced window's client spans are set against.
	ds, err := startDaemons(1, wl.width, true)
	if err != nil {
		return nil, 0, err
	}
	defer closeDaemons(ds)
	hc, ctlTr := newHTTPClient()
	defer ctlTr.base.CloseIdleConnections()
	ctl := newAPIClient(ds[0].url, hc)
	drainDaemon := func(int) { _, err = ctl.stats() }
	postWl, frameWl := wl, wl
	postWl.stream, postWl.framesPerOp = false, 1
	frameWl.stream, frameWl.framesPerOp = true, 1
	var frameNs, opNs []int64
	for _, rung := range []struct {
		wl   workload
		name string
		base uint64
		n    int
		id   uint8
		out  *[]int64
	}{
		{postWl, "client.post", ladderFrameBase, l.frames, lsPost, new([]int64)},
		{frameWl, "client.stream_frame_sync", ladderFrameBase, l.frames, lsStreamFrame, &frameNs},
		{wl, "client.write_op", ladderOpBase, l.frames / wl.framesPerOp, 1, &opNs},
	} {
		w, err := newWriter(rung.wl, in, ds[0])
		if err != nil {
			return nil, 0, err
		}
		*rung.out = l.spans(rung.name, rung.base, rung.n, rung.id, 0, drainDaemon, func(i int) { _, err = w.write(i, nil) })
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, err
		}
	}
	r := newReader(in, ds[0])
	defer r.close()
	l.reads("client.query", lsQuery, 0, nil, func([]uint64) { _, _, err = r.read(nil) })
	if err != nil {
		return nil, 0, err
	}

	// Self times, straight from the spans: what each rung adds over the rungs
	// below it on the same frame or read.
	spans := rec.spans[firstSpan:]
	self := byName(spans, selfTimes(spans))
	m["server.update_self_us"] = percentile(self["server.update_handler"], 50) / 1e3
	m["server.loopback_post_us"] = percentile(self["client.post"], 50) / 1e3
	m["server.query_self_us"] = percentile(self["server.query_handler"], 50) / 1e3
	m["server.loopback_query_us"] = percentile(self["client.query"], 50) / 1e3
	m["server.stream_frame_us"] = medianNs(frameNs) / 1e3
	m["gossip.tick_cost_ms"] = m["sketch.copy_ms"] + m["sketch.sub_ms"] + m["encoding.marshal_ms"] +
		m["encoding.delta_encode_ms"] + m["wire.skd1_encode_ms"] + m["server.delta_handler_ms"]
	return m, medianNs(opNs), nil
}
