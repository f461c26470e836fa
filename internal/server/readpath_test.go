package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// The tests in this file pin the batch-first read path: POST /v1/query in
// both body formats answers bit-identically to the per-key GET form and the
// in-process reference, the epoch cache pins quiescent reads and is
// invalidated by every acknowledged write, /v1/topk re-ranks per epoch, and
// the stats counters account for all of it.

// ingestReference pushes a Zipf stream into the daemon and returns the
// single-threaded reference tracker plus a mixed seen/unseen key column.
func ingestReference(t *testing.T, client *Client, cfg Config, n int) (*sketch.HeavyHitterTracker, []uint64) {
	t.Helper()
	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	s := stream.Zipf(xrand.New(77), 1<<14, n, 1.1)
	for _, u := range s.Updates {
		reference.Update(u.Item, float64(u.Delta))
	}
	if err := postStream(context.Background(), client, s.Updates); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(78)
	keys := make([]uint64, 700)
	for i := range keys {
		if i%3 == 0 {
			keys[i] = r.Uint64() // almost surely unseen
		} else {
			keys[i] = s.Updates[int(r.Uint64n(uint64(len(s.Updates))))].Item
		}
	}
	return reference, keys
}

// TestBatchQueryMatchesScalar: both batch body formats answer every key
// bit-identically to the reference sketch and to the per-key GET form, at
// one shared generation.
func TestBatchQueryMatchesScalar(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 32, Seed: 21, Engine: engine.Config{Workers: 2, BatchSize: 64}}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()
	reference, keys := ingestReference(t, client, cfg, 30_000)

	// JSON body.
	body, err := json.Marshal(QueryBatchRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	data, err := client.do(ctx, http.MethodPost, "/v1/query", contentTypeJSON, body)
	if err != nil {
		t.Fatal(err)
	}
	var jsonResp QueryBatchResponse
	if err := json.Unmarshal(data, &jsonResp); err != nil {
		t.Fatal(err)
	}
	if len(jsonResp.Estimates) != len(keys) {
		t.Fatalf("JSON batch returned %d estimates for %d keys", len(jsonResp.Estimates), len(keys))
	}

	// Binary body + binary answer through the reusable querier.
	bq := client.BatchQuerier()
	binEsts, gen, err := bq.Query(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if gen != jsonResp.Gen {
		t.Fatalf("binary batch answered at gen %d, JSON at %d (no writes in flight)", gen, jsonResp.Gen)
	}

	// Per-key GET form over the same keys, chunked to keep URLs reasonable.
	scalar := make([]float64, 0, len(keys))
	for start := 0; start < len(keys); start += 256 {
		end := min(start+256, len(keys))
		part, err := client.Query(ctx, keys[start:end]...)
		if err != nil {
			t.Fatal(err)
		}
		scalar = append(scalar, part...)
	}

	for i, key := range keys {
		want := reference.Estimate(key)
		for _, got := range []struct {
			path string
			est  float64
		}{{"json", jsonResp.Estimates[i]}, {"binary", binEsts[i]}, {"scalar", scalar[i]}} {
			if math.Float64bits(got.est) != math.Float64bits(want) {
				t.Fatalf("%s estimate(%d) = %v, reference = %v", got.path, key, got.est, want)
			}
		}
	}
}

// TestBatchQuerierReuse: the retained buffers answer correctly across calls
// of different lengths, and the wire formats round-trip.
func TestBatchQuerierReuse(t *testing.T) {
	cfg := Config{Width: 256, Depth: 3, K: 16, Seed: 5}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()
	reference, keys := ingestReference(t, client, cfg, 10_000)

	bq := client.BatchQuerier()
	for _, n := range []int{1, 7, 512, 64, 700} {
		ests, _, err := bq.Query(ctx, keys[:n])
		if err != nil {
			t.Fatalf("batch of %d: %v", n, err)
		}
		for i, key := range keys[:n] {
			if want := reference.Estimate(key); math.Float64bits(ests[i]) != math.Float64bits(want) {
				t.Fatalf("batch of %d: estimate(%d) = %v, reference = %v", n, key, ests[i], want)
			}
		}
	}
}

// TestReadAllIntoReusesStorage: a response body that fits the retained
// buffer is read into it with no allocation, and one that does not grows it
// and still reads every byte, as io.ReadAll does.
func TestReadAllIntoReusesStorage(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1000)
	var r bytes.Reader
	for _, dst := range [][]byte{nil, make([]byte, 3), make([]byte, 0, len(body)-1)} {
		r.Reset(body)
		got, err := readAllInto(dst, &r)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("cap %d: read %d bytes (err %v), want the %d-byte body", cap(dst), len(got), err, len(body))
		}
	}
	buf := make([]byte, 0, len(body)+1)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		got, err := readAllInto(buf, &r)
		if err != nil || &got[0] != &buf[:1][0] || !bytes.Equal(got, body) {
			t.Fatalf("a body that fits was not read into the retained buffer (err %v)", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reading into a buffer that fits allocated %v times", allocs)
	}
}

// TestKeyColumnRoundTrip pins the SKQ1/SKE1 encodings byte for byte.
func TestKeyColumnRoundTrip(t *testing.T) {
	keys := []uint64{0, 1, ^uint64(0), 1 << 40}
	enc := AppendKeyColumns(nil, keys)
	dec, err := DecodeKeyColumns(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re := AppendKeyColumns(nil, dec); !bytes.Equal(re, enc) {
		t.Fatal("key column does not round-trip byte-identically")
	}

	ests := []float64{0, -1.5, math.Inf(1), 1e-300}
	encE := AppendEstimateColumns(nil, -7, ests)
	decE, gen, err := DecodeEstimateColumns(encE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != -7 {
		t.Fatalf("estimate column gen = %d, want -7", gen)
	}
	if re := AppendEstimateColumns(nil, gen, decE); !bytes.Equal(re, encE) {
		t.Fatal("estimate column does not round-trip byte-identically")
	}

	for _, bad := range [][]byte{
		nil,
		[]byte("SKQ1"),
		[]byte("SKB1\x00\x00\x00\x00"),
		[]byte("SKQ1\x00\x00\x00\x02somebytes"),
		[]byte("SKQ1\xff\xff\xff\xff"),
	} {
		if _, err := DecodeKeyColumns(bad, nil); err == nil {
			t.Fatalf("DecodeKeyColumns accepted malformed input %q", bad)
		}
	}
}

// TestBatchQueryErrors pins the failure envelope of the batch form.
func TestBatchQueryErrors(t *testing.T) {
	_, client := testDaemon(t, Config{Width: 64, Depth: 2, K: 8, Seed: 3})
	ctx := context.Background()

	requireStatus := func(wantStatus int, contentType string, body []byte) {
		t.Helper()
		_, err := client.do(ctx, http.MethodPost, "/v1/query", contentType, body)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != wantStatus {
			t.Fatalf("POST /v1/query with %q body: err %v, want HTTP %d", contentType, err, wantStatus)
		}
	}
	requireStatus(http.StatusBadRequest, contentTypeJSON, []byte(`{"keys":[]}`))
	requireStatus(http.StatusBadRequest, contentTypeJSON, []byte(`{not json`))
	requireStatus(http.StatusBadRequest, contentTypeKeys, []byte("SKQ1\x00\x00\x00\x09short"))
	requireStatus(http.StatusUnsupportedMediaType, "application/x-unknown", []byte("x"))

	// Wrong method still lands in the JSON 405 envelope naming both verbs.
	_, err := client.do(ctx, http.MethodPut, "/v1/query", "", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/query: err %v, want HTTP 405", err)
	}
}

// TestReadEpochPinsAndInvalidates: quiescent reads share one epoch (hits
// accumulate, misses do not), every acknowledged write invalidates it, and
// the stats counters report hits, misses and mean batch size.
func TestReadEpochPinsAndInvalidates(t *testing.T) {
	srv, client := testDaemon(t, Config{Width: 256, Depth: 3, K: 16, Seed: 9})
	ctx := context.Background()

	if err := client.UpdateColumns(ctx, []uint64{1, 2, 3}, []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	// First read rebuilds the epoch; the next ones ride it.
	if _, err := client.QueryBatch(ctx, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	misses := srv.epochMisses.Load()
	if misses != 1 {
		t.Fatalf("epoch misses after first read: %d, want 1", misses)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.QueryBatch(ctx, []uint64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.epochMisses.Load(); got != misses {
		t.Fatalf("quiescent reads rebuilt the epoch: misses %d -> %d", misses, got)
	}
	if hits := srv.epochHits.Load(); hits < 3 {
		t.Fatalf("epoch hits = %d, want >= 3", hits)
	}

	// An acknowledged write moves the generation and the epoch follows.
	before, err := client.QueryBatch(ctx, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.UpdateColumns(ctx, []uint64{1}, []float64{5}); err != nil {
		t.Fatal(err)
	}
	after, err := client.QueryBatch(ctx, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != before[0]+5 {
		t.Fatalf("estimate after write = %v, want %v", after[0], before[0]+5)
	}
	if got := srv.epochMisses.Load(); got != misses+1 {
		t.Fatalf("write invalidated the epoch %d times, want exactly once", got-misses)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EpochHits != srv.epochHits.Load() || stats.EpochMisses != srv.epochMisses.Load() {
		t.Fatalf("stats epoch counters (%d, %d) disagree with the server (%d, %d)",
			stats.EpochHits, stats.EpochMisses, srv.epochHits.Load(), srv.epochMisses.Load())
	}
	// 6 batch queries carried 2+4+4+4+1+1 = 16 keys.
	if stats.BatchQueries != 6 {
		t.Fatalf("batch queries = %d, want 6", stats.BatchQueries)
	}
	if want := 16.0 / 6.0; math.Abs(stats.MeanBatchKeys-want) > 1e-12 {
		t.Fatalf("mean batch keys = %v, want %v", stats.MeanBatchKeys, want)
	}
}

// TestTopKRescoredPerEpoch: /v1/topk answers from the cached per-epoch
// ranking, a write re-ranks, and ?phi= keeps matching the un-rounded
// HeavyHitters contract exactly.
func TestTopKRescoredPerEpoch(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 13}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()

	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	items := []uint64{10, 20, 30}
	deltas := []float64{100, 50, 25}
	reference.UpdateBatch(items, deltas)
	if err := client.UpdateColumns(ctx, items, deltas); err != nil {
		t.Fatal(err)
	}

	ranked, err := client.TopK(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 || ranked[0].Item != 10 || ranked[1].Item != 20 {
		t.Fatalf("topk(2) = %v, want items 10 then 20", ranked)
	}

	// A write that reorders the candidates must reorder the next answer.
	reference.Update(30, 200)
	if err := client.UpdateColumns(ctx, []uint64{30}, []float64{200}); err != nil {
		t.Fatal(err)
	}
	ranked, err = client.TopK(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 || ranked[0].Item != 30 {
		t.Fatalf("topk after re-ranking write = %v, want item 30 first", ranked)
	}
	for _, ic := range ranked {
		if want := int64(reference.Estimate(ic.Item) + 0.5); ic.Count != want {
			t.Fatalf("topk count for %d = %d, reference %d", ic.Item, ic.Count, want)
		}
	}

	// The phi path thresholds un-rounded estimates against total mass.
	hits, err := client.HeavyHitters(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := reference.HeavyHitters(0.5)
	if len(hits) != len(want) {
		t.Fatalf("heavy hitters = %v, reference %v", hits, want)
	}
	for i := range hits {
		if hits[i] != want[i] {
			t.Fatalf("heavy hitter %d = %v, reference %v", i, hits[i], want[i])
		}
	}
}

// TestConcurrentBatchQueryDuringIngest races batch readers against posting
// writers (run under -race): every response must be internally consistent,
// and after the writers quiesce the batch answers must equal the reference
// bit for bit.
func TestConcurrentBatchQueryDuringIngest(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 32, Seed: 17, Engine: engine.Config{Workers: 3, BatchSize: 32}, Producers: 4}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()

	const writers, batches, batchLen = 3, 40, 64
	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	all := make([][]uint64, writers*batches)
	allDeltas := make([][]float64, writers*batches)
	r := xrand.New(18)
	for b := range all {
		all[b] = make([]uint64, batchLen)
		allDeltas[b] = make([]float64, batchLen)
		for i := range all[b] {
			all[b][i] = r.Uint64n(1 << 12)
			allDeltas[b][i] = float64(r.Uint64n(9) + 1)
		}
		reference.UpdateBatch(all[b], allDeltas[b])
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := client.UpdateColumns(ctx, all[w*batches+b], allDeltas[w*batches+b]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	var readersDone sync.WaitGroup
	stopReaders := make(chan struct{})
	for g := 0; g < 3; g++ {
		readersDone.Add(1)
		go func(g int) {
			defer readersDone.Done()
			bq := client.BatchQuerier()
			kr := xrand.New(uint64(900 + g))
			keys := make([]uint64, 128)
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for i := range keys {
					keys[i] = kr.Uint64n(1 << 13)
				}
				ests, _, err := bq.Query(ctx, keys)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				for _, est := range ests {
					if est < 0 || math.IsNaN(est) {
						t.Errorf("reader %d: impossible estimate %v", g, est)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopReaders)
	readersDone.Wait()
	if t.Failed() {
		return
	}

	keys := make([]uint64, 0, 1<<10)
	for key := uint64(0); key < 1<<13; key += 7 {
		keys = append(keys, key)
	}
	ests, _, err := client.BatchQuerier().Query(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if want := reference.Estimate(key); math.Float64bits(ests[i]) != math.Float64bits(want) {
			t.Fatalf("estimate(%d) after quiesce = %v, reference = %v", key, ests[i], want)
		}
	}
}

// TestBatchQueryAfterClose: the lock-free fast path is fenced once the
// engine is retired.
func TestBatchQueryAfterClose(t *testing.T) {
	srv, err := New(Config{Width: 64, Depth: 2, K: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.readEpochSnap(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.readEpochSnap(); err != ErrServerClosed {
		t.Fatalf("readEpochSnap after Close: err %v, want ErrServerClosed", err)
	}
}
