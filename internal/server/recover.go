// Sparse recovery endpoints: the read side of the paper's thesis. The same
// hashing matrix that answers point queries is a compressed-sensing
// measurement (GET/POST /v1/recover inverts it with internal/cs), a set-query
// sketch in the sense of Price (POST /v1/setquery calibrates estimates over a
// caller-supplied support), and — one abstraction over — the bucketing
// primitive of the sparse Fourier transform (POST /v1/spectrum runs
// internal/sfft over a posted signal). All three answer from the same barrier
// snapshots as /v1/query and /v1/topk, with the snapshot's counters viewed
// zero-copy as the measurement vector via engine.Measurement.

package server

import (
	"encoding/json"
	"math"
	"math/cmplx"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cs"
	"repro/internal/engine"
	"repro/internal/sfft"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// recovererFor maps an algorithm name to its internal/cs implementation, or
// nil for unknown names. iters is the iteration budget of the iterative
// algorithms (sketch decoding is a single pass and ignores it).
func recovererFor(algo string, iters int) cs.Recoverer {
	switch algo {
	case "sketch":
		return cs.SketchDecode{}
	case "omp":
		return cs.OMP{MaxIter: iters}
	case "iht":
		return cs.IHT{Iters: iters}
	case "ista":
		return cs.ISTA{Iters: iters}
	case "smp":
		return cs.SMP{Iters: iters}
	default:
		return nil
	}
}

// algoEnabled reports whether the config allows the named recoverer.
func (s *Server) algoEnabled(algo string) bool {
	for _, a := range s.cfg.RecoverAlgos {
		if a == algo {
			return true
		}
	}
	return false
}

// queryInt parses an optional positive-integer query parameter into *dst,
// answering a 400 envelope and returning false on junk.
func queryInt(w http.ResponseWriter, r *http.Request, name string, dst *int) bool {
	v := r.URL.Query().Get(name)
	if v == "" {
		return true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		writeErr(w, http.StatusBadRequest, "bad %s %q: want a positive integer", name, v)
		return false
	}
	*dst = n
	return true
}

// errorBound returns the Count-Min per-coordinate additive error
// (e/width)·‖x‖₁: the (ε, δ) guarantee instantiated at ε = e/width, which
// holds per coordinate with probability at least 1 - exp(-depth).
func errorBound(width int, mass float64) float64 {
	return math.E / float64(width) * math.Abs(mass)
}

// confidence returns 1 - exp(-depth), the probability the error bound holds.
func confidence(depth int) float64 {
	return 1 - math.Exp(-float64(depth))
}

// handleRecover serves GET/POST /v1/recover: cut a barrier snapshot, view it
// as the linear measurement y = A·x of the ingested frequency vector, and
// invert it with the requested internal/cs recoverer into an approximate
// top-k vector. Parameters come from an optional JSON body (POST) overridden
// by query parameters.
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	var req RecoverRequest
	if r.Method == http.MethodPost {
		data, ok := s.readBody(w, r)
		if !ok {
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, contentTypeJSON) {
			writeErr(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want %s)", ct, contentTypeJSON)
			return
		}
		if len(data) > 0 {
			if err := json.Unmarshal(data, &req); err != nil {
				writeErr(w, http.StatusBadRequest, "decoding recover request: %v", err)
				return
			}
		}
	}
	if v := r.URL.Query().Get("algo"); v != "" {
		req.Algo = v
	}
	if !queryInt(w, r, "k", &req.K) || !queryInt(w, r, "universe", &req.Universe) || !queryInt(w, r, "iters", &req.Iters) {
		return
	}

	if req.Algo == "" {
		req.Algo = s.cfg.RecoverAlgos[0]
	}
	if recovererFor(req.Algo, 1) == nil || !s.algoEnabled(req.Algo) {
		writeErrDetail(w, http.StatusBadRequest,
			"enabled algorithms: "+strings.Join(s.cfg.RecoverAlgos, ", "),
			"unknown or disabled recovery algorithm %q", req.Algo)
		return
	}
	if req.K == 0 {
		req.K = min(s.cfg.K, s.cfg.RecoverMaxK)
	}
	if req.K < 1 || req.K > s.cfg.RecoverMaxK {
		writeErrDetail(w, http.StatusBadRequest,
			"accepted range: 1 <= k <= "+strconv.Itoa(s.cfg.RecoverMaxK),
			"k %d out of range (this daemon caps recovery at k = %d)", req.K, s.cfg.RecoverMaxK)
		return
	}
	if req.Universe == 0 {
		req.Universe = s.cfg.RecoverUniverse
	}
	if req.Universe < 1 || req.Universe > MaxRecoverUniverse {
		writeErrDetail(w, http.StatusBadRequest,
			"accepted range: 1 <= universe <= "+strconv.Itoa(MaxRecoverUniverse),
			"universe %d out of range", req.Universe)
		return
	}
	if req.Iters == 0 {
		req.Iters = s.cfg.RecoverIters
	}

	snap, gen, err := s.snapshotGen()
	if err != nil {
		writeSnapshotErr(w, err)
		return
	}
	m, err := engine.NewTrackerMeasurement(snap, req.Universe)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "building measurement: %v", err)
		return
	}
	xhat, err := recovererFor(req.Algo, req.Iters).Recover(m, m.Measurements(), req.K)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "recovery failed: %v", err)
		return
	}

	entries := make([]RecoverEntry, 0, req.K)
	for j, v := range xhat {
		if v != 0 {
			entries = append(entries, RecoverEntry{Item: uint64(j), Estimate: v})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		ai, aj := math.Abs(entries[i].Estimate), math.Abs(entries[j].Estimate)
		if ai != aj {
			return ai > aj
		}
		return entries[i].Item < entries[j].Item
	})
	if len(entries) > req.K {
		entries = entries[:req.K]
	}
	writeJSON(w, http.StatusOK, RecoverResponse{
		Algo:       req.Algo,
		K:          req.K,
		Universe:   req.Universe,
		Entries:    entries,
		ErrorBound: errorBound(snap.Width(), snap.TotalMass()),
		Confidence: confidence(snap.Depth()),
		Gen:        gen,
	})
}

// handleSetQuery serves POST /v1/setquery — Price's set-query problem: given
// a candidate support S, return calibrated estimates over exactly S. The
// default isolate estimator answers each item from the hash rows where no
// other member of S shares its bucket, which strips intra-support collision
// bias: its answer is never above the plain per-item minimum (so never less
// accurate than /v1/query on non-negative streams) and falls back to it when
// every row collides.
func (s *Server) handleSetQuery(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, contentTypeJSON) {
		writeErr(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want %s)", ct, contentTypeJSON)
		return
	}
	var req SetQueryRequest
	if err := json.Unmarshal(data, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding setquery request: %v", err)
		return
	}
	if v := r.URL.Query().Get("estimator"); v != "" {
		req.Estimator = v
	}
	if req.Estimator == "" {
		req.Estimator = "isolate"
	}
	if req.Estimator != "isolate" && req.Estimator != "min" {
		writeErrDetail(w, http.StatusBadRequest, "supported estimators: isolate, min",
			"unknown estimator %q for /v1/setquery", req.Estimator)
		return
	}
	if len(req.Support) == 0 {
		writeErr(w, http.StatusBadRequest, "empty support: POST {\"support\": [items...]}")
		return
	}
	if len(req.Support) > MaxSetQuerySupport {
		writeErrDetail(w, http.StatusBadRequest,
			"accepted range: 1 <= len(support) <= "+strconv.Itoa(MaxSetQuerySupport),
			"support has %d items (max %d)", len(req.Support), MaxSetQuerySupport)
		return
	}
	seen := make(map[uint64]bool, len(req.Support))
	for _, item := range req.Support {
		if seen[item] {
			writeErr(w, http.StatusBadRequest, "malformed support: item %d appears more than once", item)
			return
		}
		seen[item] = true
	}

	snap, gen, err := s.snapshotGen()
	if err != nil {
		writeSnapshotErr(w, err)
		return
	}
	resp := SetQueryResponse{
		Estimator:  req.Estimator,
		Estimates:  make([]SetQueryEstimate, len(req.Support)),
		ErrorBound: errorBound(snap.Width(), snap.TotalMass()),
		Confidence: confidence(snap.Depth()),
		Gen:        gen,
	}
	switch req.Estimator {
	case "min":
		for i, item := range req.Support {
			resp.Estimates[i] = SetQueryEstimate{Item: item, Estimate: snap.Estimate(item)}
		}
	case "isolate":
		resp.Estimates = isolateEstimates(snap.Backing(), req.Support)
	}
	writeJSON(w, http.StatusOK, resp)
}

// isolateEstimates computes the set-query calibration over support S: for
// each item, the minimum counter over the rows where no other member of S
// shares its bucket. Counters in those rows carry only the item's own mass
// plus tail noise from outside S, so the answer is at most the plain
// Count-Min estimate (and still an upper bound on the truth for non-negative
// streams). Items with no collision-free row fall back to the plain minimum.
func isolateEstimates(cm *sketch.CountMin, support []uint64) []SetQueryEstimate {
	width, depth := cm.Width(), cm.Depth()
	counters := cm.CounterData()
	// Per row, the bucket occupancy of the support set.
	occupancy := make([]map[int]int, depth)
	buckets := make([][]int, depth)
	for row := 0; row < depth; row++ {
		occupancy[row] = make(map[int]int, len(support))
		buckets[row] = make([]int, len(support))
		for i, item := range support {
			b := cm.RowBucket(row, item)
			buckets[row][i] = b
			occupancy[row][b]++
		}
	}
	out := make([]SetQueryEstimate, len(support))
	for i, item := range support {
		est := SetQueryEstimate{Item: item}
		isolatedMin, plainMin := math.Inf(1), math.Inf(1)
		for row := 0; row < depth; row++ {
			b := buckets[row][i]
			v := counters[row*width+b]
			if v < plainMin {
				plainMin = v
			}
			if occupancy[row][b] == 1 {
				est.IsolatedRows++
				if v < isolatedMin {
					isolatedMin = v
				}
			}
		}
		if est.IsolatedRows > 0 {
			est.Estimate = isolatedMin
		} else {
			est.Estimate = plainMin
		}
		out[i] = est
	}
	return out
}

// handleSpectrum serves POST /v1/spectrum: run the sparse Fourier transform
// of internal/sfft over a posted signal and return the dominant frequencies.
func (s *Server) handleSpectrum(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, contentTypeJSON) {
		writeErr(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want %s)", ct, contentTypeJSON)
		return
	}
	var req SpectrumRequest
	if err := json.Unmarshal(data, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding spectrum request: %v", err)
		return
	}
	if v := r.URL.Query().Get("algo"); v != "" {
		req.Algo = v
	}
	if !queryInt(w, r, "k", &req.K) {
		return
	}
	if req.Algo == "" {
		req.Algo = "exact"
	}
	if req.Algo != "exact" && req.Algo != "robust" {
		writeErrDetail(w, http.StatusBadRequest, "supported algorithms: exact, robust",
			"unknown spectrum algorithm %q", req.Algo)
		return
	}
	n := len(req.Signal)
	switch {
	case n == 0:
		writeErr(w, http.StatusBadRequest, "empty signal: POST {\"signal\": [samples...], \"k\": ...}")
		return
	case n&(n-1) != 0:
		writeErr(w, http.StatusBadRequest, "signal length %d is not a power of two", n)
		return
	case n > MaxSpectrumLen:
		writeErrDetail(w, http.StatusBadRequest,
			"accepted range: len(signal) <= "+strconv.Itoa(MaxSpectrumLen),
			"signal has %d samples (max %d)", n, MaxSpectrumLen)
		return
	}
	if req.SignalImag != nil && len(req.SignalImag) != n {
		writeErr(w, http.StatusBadRequest, "signal_imag has %d samples, signal has %d", len(req.SignalImag), n)
		return
	}
	if req.K < 1 || req.K > n/2 {
		writeErrDetail(w, http.StatusBadRequest, "accepted range: 1 <= k <= len(signal)/2",
			"k %d out of range for a %d-sample signal", req.K, n)
		return
	}
	if req.Rounds < 0 || req.Rounds > 64 {
		writeErr(w, http.StatusBadRequest, "rounds %d out of range (max 64)", req.Rounds)
		return
	}
	if req.BucketFactor < 0 || req.BucketFactor > 64 {
		writeErr(w, http.StatusBadRequest, "bucket_factor %d out of range (max 64)", req.BucketFactor)
		return
	}

	x := make([]complex128, n)
	for i, re := range req.Signal {
		var im float64
		if req.SignalImag != nil {
			im = req.SignalImag[i]
		}
		x[i] = complex(re, im)
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	transform := sfft.Exact
	if req.Algo == "robust" {
		transform = sfft.Robust
	}
	coeffs, err := transform(x, req.K, sfft.Config{Rounds: req.Rounds, BucketFactor: req.BucketFactor}, xrand.New(seed))
	if err != nil {
		// The signal parsed fine but the transform could not isolate k
		// frequencies (too dense a spectrum, adversarial collisions): the
		// request is well-formed yet unprocessable.
		writeErrDetail(w, http.StatusUnprocessableEntity,
			"try algo=robust, a smaller k, or a longer window",
			"sparse transform failed: %v", err)
		return
	}
	sfft.SortCoefficients(coeffs)
	resp := SpectrumResponse{N: n, K: req.K, Algo: req.Algo, Gen: s.gen.Load()}
	resp.Coefficients = make([]SpectrumCoefficient, len(coeffs))
	for i, c := range coeffs {
		resp.Coefficients[i] = SpectrumCoefficient{
			Freq:      c.Freq,
			Re:        real(c.Value),
			Im:        imag(c.Value),
			Magnitude: cmplx.Abs(c.Value),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
