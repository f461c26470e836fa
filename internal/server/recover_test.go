package server

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/cmplx"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fourier"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// plantedStream is a k-sparse frequency vector for recovery tests: item ->
// true count, all within a small universe.
var planted = map[uint64]float64{
	5: 9000, 77: 8000, 1023: 7000, 1500: 6000,
	2048: 5000, 3000: 4000, 3500: 3000, 4095: 2000,
}

func ingestPlanted(t *testing.T, client *Client, items map[uint64]float64) {
	t.Helper()
	var keys []uint64
	var deltas []float64
	for item, count := range items {
		keys, deltas = append(keys, item), append(deltas, count)
	}
	if err := client.UpdateColumns(context.Background(), keys, deltas); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverExactOnSparseStream is the recovery acceptance invariant: a
// k-sparse ingest is reproduced exactly — planted support, planted counts,
// deviation 0 — by every recovery algorithm, from live counters over HTTP.
func TestRecoverExactOnSparseStream(t *testing.T) {
	cfg := Config{Width: 2048, Depth: 5, K: 32, Seed: 7, RecoverUniverse: 4096}
	_, client := testDaemon(t, cfg)
	ingestPlanted(t, client, planted)

	for _, algo := range []string{"sketch", "smp", "omp", "iht", "ista"} {
		resp, err := client.Recover(context.Background(), RecoverRequest{Algo: algo, K: len(planted)})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if resp.Algo != algo || resp.Universe != 4096 {
			t.Fatalf("%s: response echoes algo=%q universe=%d", algo, resp.Algo, resp.Universe)
		}
		if len(resp.Entries) != len(planted) {
			t.Fatalf("%s: recovered %d entries, want %d: %+v", algo, len(resp.Entries), len(planted), resp.Entries)
		}
		for _, e := range resp.Entries {
			want, ok := planted[e.Item]
			if !ok {
				t.Fatalf("%s: spurious item %d in %+v", algo, e.Item, resp.Entries)
			}
			// ISTA's l1 penalty shrinks estimates; the support must still be
			// exact, the values within its soft-threshold bias.
			tol := 1e-6
			if algo == "ista" {
				tol = 0.2 * want
			}
			if math.Abs(e.Estimate-want) > tol {
				t.Fatalf("%s: item %d estimate %v, want %v (tol %v)", algo, e.Item, e.Estimate, want, tol)
			}
		}
		if resp.ErrorBound <= 0 || resp.Confidence <= 0 || resp.Confidence >= 1 {
			t.Fatalf("%s: implausible bound/confidence: %+v", algo, resp)
		}
	}
}

// TestRecoverTwoDaemonExactness is the distributed version: two daemons
// ingest disjoint halves of the planted stream, one merges the other's
// snapshot, and /v1/recover (omp, iht, smp) over the merged counters matches
// the single-threaded reference recovery exactly.
func TestRecoverTwoDaemonExactness(t *testing.T) {
	cfg := Config{Width: 2048, Depth: 5, K: 32, Seed: 7, RecoverUniverse: 4096}
	_, clientA := testDaemon(t, cfg)
	_, clientB := testDaemon(t, cfg)
	ctx := context.Background()

	// Reference: one tracker sees the whole stream.
	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	i := 0
	for item, count := range planted {
		reference.Update(item, count)
		half := clientA
		if i%2 == 1 {
			half = clientB
		}
		if err := half.UpdateColumns(ctx, []uint64{item}, []float64{count}); err != nil {
			t.Fatal(err)
		}
		i++
	}
	snap, err := clientB.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := clientA.Merge(ctx, snap); err != nil {
		t.Fatal(err)
	}

	m, err := engine.NewTrackerMeasurement(reference, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"omp", "iht", "smp"} {
		resp, err := clientA.Recover(ctx, RecoverRequest{Algo: algo, K: len(planted)})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		ref, err := recovererFor(algo, cfg.withDefaults().RecoverIters).Recover(m, m.Measurements(), len(planted))
		if err != nil {
			t.Fatalf("%s reference: %v", algo, err)
		}
		if len(resp.Entries) != len(planted) {
			t.Fatalf("%s: recovered %d entries, want %d", algo, len(resp.Entries), len(planted))
		}
		for _, e := range resp.Entries {
			if _, ok := planted[e.Item]; !ok {
				t.Fatalf("%s: spurious item %d", algo, e.Item)
			}
			if math.Abs(e.Estimate-ref[e.Item]) > 1e-9 {
				t.Fatalf("%s: item %d served %v, reference %v", algo, e.Item, e.Estimate, ref[e.Item])
			}
			if math.Abs(e.Estimate-planted[e.Item]) > 1e-6*planted[e.Item] {
				t.Fatalf("%s: item %d estimate %v deviates from planted %v", algo, e.Item, e.Estimate, planted[e.Item])
			}
		}
	}
}

// TestSetQueryAtLeastAsAccurateAsQuery: calibrated set-query estimates over
// the true support are never farther from the truth than the per-key
// /v1/query answers, and never below the truth (non-negative stream).
func TestSetQueryAtLeastAsAccurateAsQuery(t *testing.T) {
	// A deliberately narrow sketch so collisions actually happen and the
	// isolate estimator has bias to remove.
	cfg := Config{Width: 64, Depth: 4, K: 32, Seed: 3}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()

	truth := map[uint64]float64{}
	var items []uint64
	var deltas []float64
	for item, count := range planted {
		truth[item] = count
		items, deltas = append(items, item), append(deltas, count)
	}
	// Background tail traffic to pollute buckets.
	r := xrand.New(99)
	for i := 0; i < 3000; i++ {
		item := uint64(10000 + r.Intn(5000))
		items, deltas = append(items, item), append(deltas, 1)
		truth[item]++
	}
	if err := client.UpdateColumns(ctx, items, deltas); err != nil {
		t.Fatal(err)
	}

	support := make([]uint64, 0, len(planted))
	for item := range planted {
		support = append(support, item)
	}
	resp, err := client.SetQuery(ctx, support, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Estimator != "isolate" {
		t.Fatalf("default estimator = %q, want isolate", resp.Estimator)
	}
	point, err := client.Query(ctx, support...)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range resp.Estimates {
		if e.Item != support[i] {
			t.Fatalf("estimate %d is for item %d, want %d (support order)", i, e.Item, support[i])
		}
		if e.Estimate < truth[e.Item]-1e-9 {
			t.Fatalf("item %d: set-query estimate %v below truth %v", e.Item, e.Estimate, truth[e.Item])
		}
		if e.Estimate > point[i]+1e-9 {
			t.Fatalf("item %d: set-query estimate %v above point query %v — not calibrated", e.Item, e.Estimate, point[i])
		}
	}
	// The min estimator must reproduce /v1/query exactly.
	minResp, err := client.SetQuery(ctx, support, "min")
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range minResp.Estimates {
		if e.Estimate != point[i] {
			t.Fatalf("item %d: min estimator %v != point query %v", e.Item, e.Estimate, point[i])
		}
	}
}

// TestSpectrumServesSparseFFT posts a synthesized 4-sparse signal and expects
// the exact planted frequencies back.
func TestSpectrumServesSparseFFT(t *testing.T) {
	_, client := testDaemon(t, Config{Width: 64, Depth: 2, K: 4, Seed: 11})
	const n = 1 << 10
	want := map[int]complex128{37: 3 + 1i, 200: complex(2.5, 0), 511: 1 - 2i, 900: complex(0, 4)}
	spec := make([]complex128, n)
	for f, v := range want {
		spec[f] = v
	}
	x := fourier.InverseFFT(spec)
	req := SpectrumRequest{Signal: make([]float64, n), SignalImag: make([]float64, n), K: len(want)}
	for i, v := range x {
		req.Signal[i], req.SignalImag[i] = real(v), imag(v)
	}
	resp, err := client.Spectrum(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Coefficients) != len(want) {
		t.Fatalf("recovered %d coefficients, want %d: %+v", len(resp.Coefficients), len(want), resp.Coefficients)
	}
	for _, c := range resp.Coefficients {
		v, ok := want[c.Freq]
		if !ok {
			t.Fatalf("spurious frequency %d", c.Freq)
		}
		if cmplx.Abs(complex(c.Re, c.Im)-v) > 1e-6 {
			t.Fatalf("frequency %d recovered %v%+vi, want %v", c.Freq, c.Re, c.Im, v)
		}
	}
}

// TestRecoverGenMatchesReads: the gen stamped on recovery responses is the
// same barrier-snapshot generation the point-query and top-k reads report.
func TestRecoverGenMatchesReads(t *testing.T) {
	_, client := testDaemon(t, Config{Width: 512, Depth: 4, K: 8, Seed: 1, RecoverUniverse: 1024})
	ctx := context.Background()
	ingestPlanted(t, client, map[uint64]float64{1: 10, 2: 20})

	data, err := client.do(ctx, http.MethodGet, "/v1/query?item=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var q QueryResponse
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.Gen == 0 {
		t.Fatal("query response missing gen")
	}
	rec, err := client.Recover(ctx, RecoverRequest{Algo: "sketch", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sq, err := client.SetQuery(ctx, []uint64{1, 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != q.Gen || sq.Gen != q.Gen {
		t.Fatalf("gen mismatch across reads: query %d, recover %d, setquery %d", q.Gen, rec.Gen, sq.Gen)
	}
}

// TestRecoverRespectsAlgoGate: a daemon started with a restricted
// -recover-algos list refuses the others with a 400 naming the enabled set.
func TestRecoverRespectsAlgoGate(t *testing.T) {
	_, client := testDaemon(t, Config{Width: 512, Depth: 4, K: 8, Seed: 1, RecoverAlgos: []string{"sketch", "smp"}})
	ctx := context.Background()
	if _, err := client.Recover(ctx, RecoverRequest{Algo: "smp", K: 2}); err != nil {
		t.Fatalf("enabled algo rejected: %v", err)
	}
	_, err := client.Recover(ctx, RecoverRequest{Algo: "omp", K: 2})
	apiErr, ok := errAsAPI(err)
	if !ok || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("disabled algo: got %v, want 400", err)
	}
	if !strings.Contains(apiErr.Detail, "sketch, smp") {
		t.Fatalf("error detail %q does not name the enabled algorithms", apiErr.Detail)
	}
	if _, err := New(Config{RecoverAlgos: []string{"nope"}}); err == nil {
		t.Fatal("New accepted an unknown RecoverAlgos entry")
	}
}

func errAsAPI(err error) (*APIError, bool) {
	apiErr, ok := err.(*APIError)
	return apiErr, ok
}

// TestErrorEnvelopeOnEveryRoute is the unified-error acceptance check: a
// failing request on every /v1/* route answers the nested JSON envelope with
// a stable code and a useful message.
func TestErrorEnvelopeOnEveryRoute(t *testing.T) {
	srv, client := testDaemon(t, Config{Width: 256, Depth: 3, K: 8, Seed: 1, RecoverMaxK: 16})
	_ = srv

	// A wrong-family sketch for /v1/merge: a raw CountSketch encoding where
	// a tracker snapshot is required.
	wrongFamily, err := sketch.NewCountSketch(xrand.New(1), 256, 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		ct         string
		wantStatus int
		wantCode   string
		wantWord   string
	}{
		{"update bad json", "POST", "/v1/update", "{", contentTypeJSON, 400, "invalid_argument", "decoding"},
		{"update bad content type", "POST", "/v1/update", "x", "text/csv", 415, "unsupported_media_type", "Content-Type"},
		{"query missing item", "GET", "/v1/query", "", "", 400, "invalid_argument", "item"},
		{"query bad estimator", "GET", "/v1/query?item=1&estimator=magic", "", "", 400, "invalid_argument", "estimator"},
		{"topk bad k", "GET", "/v1/topk?k=-3", "", "", 400, "invalid_argument", "k"},
		{"recover bad algo", "GET", "/v1/recover?algo=magic", "", "", 400, "invalid_argument", "algorithm"},
		{"recover oversized k", "GET", "/v1/recover?k=100000", "", "", 400, "invalid_argument", "k"},
		{"recover bad universe", "GET", "/v1/recover?universe=99999999", "", "", 400, "invalid_argument", "universe"},
		{"setquery empty support", "POST", "/v1/setquery", `{"support":[]}`, contentTypeJSON, 400, "invalid_argument", "support"},
		{"setquery duplicate item", "POST", "/v1/setquery", `{"support":[7,8,7]}`, contentTypeJSON, 400, "invalid_argument", "more than once"},
		{"setquery malformed json", "POST", "/v1/setquery", `{"support":"x"}`, contentTypeJSON, 400, "invalid_argument", "decoding"},
		{"setquery bad estimator", "POST", "/v1/setquery", `{"support":[1],"estimator":"magic"}`, contentTypeJSON, 400, "invalid_argument", "estimator"},
		{"spectrum not power of two", "POST", "/v1/spectrum", `{"signal":[1,2,3],"k":1}`, contentTypeJSON, 400, "invalid_argument", "power of two"},
		{"spectrum bad k", "POST", "/v1/spectrum", `{"signal":[1,2,3,4],"k":9}`, contentTypeJSON, 400, "invalid_argument", "k"},
		{"spectrum bad algo", "POST", "/v1/spectrum", `{"signal":[1,2,3,4],"k":1,"algo":"magic"}`, contentTypeJSON, 400, "invalid_argument", "algorithm"},
		{"merge empty body", "POST", "/v1/merge", "", contentTypeSnapshot, 400, "invalid_argument", "empty"},
		{"merge wrong family", "POST", "/v1/merge", string(wrongFamily), contentTypeSnapshot, 400, "invalid_argument", ""},
		{"delta bad frame", "POST", "/v1/delta", "junk", contentTypeDelta, 400, "invalid_argument", "delta"},
		{"wrong method", "DELETE", "/v1/update", "", "", 405, "method_not_allowed", "POST"},
		{"unknown endpoint", "GET", "/v1/nope", "", "", 404, "not_found", "endpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, envelope := rawRequest(t, client, tc.method, tc.path, tc.ct, tc.body, "")
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", status, tc.wantStatus, envelope)
			}
			var resp errorResponse
			if err := json.Unmarshal([]byte(envelope), &resp); err != nil {
				t.Fatalf("body is not the JSON envelope: %v (%s)", err, envelope)
			}
			if resp.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q", resp.Error.Code, tc.wantCode)
			}
			if resp.Error.Message == "" {
				t.Fatal("envelope has an empty message")
			}
			if tc.wantWord != "" && !strings.Contains(envelope, tc.wantWord) {
				t.Fatalf("envelope %q does not mention %q", envelope, tc.wantWord)
			}
		})
	}

	// There is no plain-text escape hatch: a text/plain Accept still gets the
	// envelope.
	status, body := rawRequest(t, client, "GET", "/v1/query", "", "", "text/plain")
	if status != http.StatusBadRequest {
		t.Fatalf("text/plain request status %d, want 400", status)
	}
	var resp errorResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.Error.Code != "invalid_argument" {
		t.Fatalf("Accept: text/plain did not get the JSON envelope: %v (%s)", err, body)
	}
}

// rawRequest issues a hand-rolled request against the daemon behind client
// and returns the status and body.
func rawRequest(t *testing.T, client *Client, method, path, ct, body, accept string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, client.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := client.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}
