package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sketch"
)

// Epoch-pinned read path ------------------------------------------------------
//
// The daemon keeps one cache of the served state: an atomic pointer to the
// latest sum of the engine's cut and the foreign sketch, stamped with the
// write generation it covers. A reader whose loaded epoch matches the current
// generation answers lock-free — no snapMu, no barrier — and any acknowledged
// write (update, merge, applied delta) invalidates the epoch simply by
// bumping gen. Only the first reader after a write rebuilds, under snapMu
// (snapshotLocked), and the rebuild costs a barrier only when the engine
// moved: the engine keeps the one cache of its own cut (Engine.ReadSnapshot),
// which the rebuild, the replicator and bootstrap all read.
//
// The snapshot inside an epoch is shared by every concurrent reader and is
// immutable by contract: handlers query it only through the read-only
// estimators (Estimate, EstimateBatchWith, TopK, HeavyHitters), which never
// touch the tracker's counters. That is also what lets an epoch be the
// engine's pinned cut or the foreign sketch itself rather than a copy (see
// snapshotLocked): the engine never writes to a cut it published, and
// mergeForeign copies a foreign that was served before writing to it.

// readEpoch is one published read generation: a shared immutable snapshot,
// the write generation it covers, and the lazily computed ranked candidate
// list (sorted once per epoch, shared by every ?k= request until a write
// invalidates the epoch).
type readEpoch struct {
	gen  int64
	snap *sketch.HeavyHitterTracker

	topkOnce sync.Once
	topk     []TopKItem
}

// rankedTopK returns the epoch's candidates re-scored against its counters
// and sorted by decreasing count, computing them on first use. Callers share
// the returned slice and must not mutate it (truncating views are fine).
func (ep *readEpoch) rankedTopK() []TopKItem {
	ep.topkOnce.Do(func() {
		source := ep.snap.TopK()
		ranked := make([]TopKItem, 0, len(source))
		for _, ic := range source {
			ranked = append(ranked, TopKItem{Item: ic.Item, Count: ic.Count})
		}
		ep.topk = ranked
	})
	return ep.topk
}

// readLane is the read-side twin of ingestLane: reusable key/estimate columns
// plus the estimation scratch and the binary response buffer, guarded by one
// lane-local lock. Batch queries pick a lane round-robin, so P lanes serve P
// concurrent batch bodies and the steady-state batch read allocates nothing
// beyond what net/http itself does.
type readLane struct {
	mu   sync.Mutex
	keys []uint64               // reusable decode column, guarded by mu
	ests []float64              // reusable estimate column, guarded by mu
	sc   sketch.EstimateScratch // per-lane kernel scratch, guarded by mu
	buf  []byte                 // reusable binary response buffer, guarded by mu
}

// readEpochSnap returns the current read epoch, rebuilding and publishing it
// when stale. The fast path is lock-free; the slow path funnels through
// snapMu, so concurrent readers behind one invalidation pay a single rebuild
// between them.
func (s *Server) readEpochSnap() (*readEpoch, error) {
	if s.engRetired.Load() {
		return nil, ErrServerClosed
	}
	if ep := s.epoch.Load(); ep != nil && ep.gen == s.gen.Load() {
		s.epochHits.Add(1)
		return ep, nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Another snapMu holder may have republished while we waited for the
	// lock; their epoch is as current as ours would be, and a hit.
	published := s.epoch.Load()
	ep, err := s.snapshotLocked()
	if err != nil {
		return nil, err
	}
	if ep == published {
		s.epochHits.Add(1)
	} else {
		s.epochMisses.Add(1)
	}
	return ep, nil
}

// wantsEstimateColumn reports whether the client asked for the binary
// estimate-column answer via Accept: application/x-sketch-estimates.
func wantsEstimateColumn(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if strings.TrimSpace(strings.SplitN(part, ";", 2)[0]) == contentTypeEstimates {
			return true
		}
	}
	return false
}

// handleQueryBatch answers POST /v1/query: a whole column of point queries
// in one request, decoded into a reusable read lane and answered through the
// batched estimation kernels from the pinned read epoch — one epoch load for
// the entire column, estimates bit-identical to the per-key GET form.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readPooledBody(w, r)
	if !ok {
		return
	}
	defer body.release()
	// JSON parses before the lane lock (the parse allocates its own request
	// struct anyway); the binary key column decodes under the lock, straight
	// into the lane's reusable column — one bounds-checked scan.
	ct := r.Header.Get("Content-Type")
	isBinary := strings.HasPrefix(ct, contentTypeKeys)
	var req QueryBatchRequest
	switch {
	case isBinary:
	case ct == "" || strings.HasPrefix(ct, contentTypeJSON):
		err := json.Unmarshal(body.data, &req)
		body.release()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "decoding JSON key batch: %v", err)
			return
		}
	default:
		writeErr(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want %s or %s)",
			ct, contentTypeJSON, contentTypeKeys)
		return
	}

	lane := s.readLanes[s.nextReadLane.Add(1)%uint64(len(s.readLanes))]
	lane.mu.Lock()
	defer lane.mu.Unlock()
	lane.keys = lane.keys[:0]
	if isBinary {
		var err error
		lane.keys, err = DecodeKeyColumns(body.data, lane.keys)
		body.release()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		lane.keys = append(lane.keys, req.Keys...)
	}
	if len(lane.keys) == 0 {
		writeErr(w, http.StatusBadRequest, `empty key batch: POST {"keys":[...]} or an SKQ1 key column`)
		return
	}

	ep, err := s.readEpochSnap()
	if err != nil {
		writeSnapshotErr(w, err)
		return
	}
	if cap(lane.ests) < len(lane.keys) {
		lane.ests = make([]float64, len(lane.keys))
	}
	lane.ests = lane.ests[:len(lane.keys)]
	ep.snap.EstimateBatchWith(lane.keys, lane.ests, &lane.sc)
	s.batchQueries.Add(1)
	s.batchKeys.Add(int64(len(lane.keys)))

	if wantsEstimateColumn(r) {
		lane.buf = AppendEstimateColumns(lane.buf[:0], ep.gen, lane.ests)
		w.Header().Set("Content-Type", contentTypeEstimates)
		w.Header().Set("Content-Length", strconv.Itoa(len(lane.buf)))
		w.WriteHeader(http.StatusOK)
		w.Write(lane.buf)
		return
	}
	writeJSON(w, http.StatusOK, QueryBatchResponse{Estimates: lane.ests, Gen: ep.gen})
}
