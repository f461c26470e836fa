package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// testDaemon wires a Server into an httptest server and returns a client for
// it; cleanup tears both down.
func testDaemon(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, NewClient(hs.URL, hs.Client())
}

// toEngineUpdates converts a stream slice to engine updates.
func toEngineUpdates(updates []stream.Update) []engine.Update {
	out := make([]engine.Update, len(updates))
	for i, u := range updates {
		out[i] = engine.Update{Item: u.Item, Delta: float64(u.Delta)}
	}
	return out
}

// TestEndToEndExactnessOverTheWire is the acceptance invariant (the HTTP
// version of experiment E11): two daemons ingest disjoint halves of a
// stream, one merges the other's /v1/snapshot, and every queried counter
// equals the single-threaded reference sketch exactly — deviation 0.
func TestEndToEndExactnessOverTheWire(t *testing.T) {
	cfg := Config{Width: 1024, Depth: 4, K: 48, Seed: 11, Engine: engine.Config{Workers: 3, BatchSize: 101}}
	_, clientA := testDaemon(t, cfg)
	_, clientB := testDaemon(t, cfg)
	ctx := context.Background()

	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	s := stream.Zipf(xrand.New(99), 1<<16, 60_000, 1.1)
	for _, u := range s.Updates {
		reference.Update(u.Item, float64(u.Delta))
	}
	half := len(s.Updates) / 2
	if err := clientA.Update(ctx, toEngineUpdates(s.Updates[:half])); err != nil {
		t.Fatal(err)
	}
	if err := clientB.Update(ctx, toEngineUpdates(s.Updates[half:])); err != nil {
		t.Fatal(err)
	}

	snap, err := clientB.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := clientA.Merge(ctx, snap); err != nil {
		t.Fatal(err)
	}

	// Every queried counter — hot items and never-seen ones — must match the
	// reference bit for bit.
	items := make([]uint64, 0, 1<<10)
	for item := uint64(0); item < 1<<16; item += 61 {
		items = append(items, item)
	}
	// Chunk queries to keep URLs reasonable.
	for start := 0; start < len(items); start += 256 {
		end := min(start+256, len(items))
		estimates, err := clientA.Query(ctx, items[start:end]...)
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range items[start:end] {
			if want := reference.Estimate(item); estimates[i] != want {
				t.Fatalf("estimate(%d) over the wire = %v, reference = %v (deviation %v)",
					item, estimates[i], want, estimates[i]-want)
			}
		}
	}

	// The merged daemon's heavy hitters must carry exact reference counts.
	ranked, err := clientA.HeavyHitters(ctx, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("merged daemon reported no heavy hitters on a Zipf stream")
	}
	for _, ic := range ranked {
		if want := int64(reference.Estimate(ic.Item) + 0.5); ic.Count != want {
			t.Fatalf("heavy hitter %d count %d != reference %d", ic.Item, ic.Count, want)
		}
	}

	// Total mass after the merge covers the full stream.
	stats, err := clientA.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != reference.TotalMass() {
		t.Fatalf("merged total mass %v != reference %v", stats.TotalMass, reference.TotalMass())
	}
}

// TestConcurrentUpdateExactness: the lock-free ingestion path under -race.
// Eight goroutines POST disjoint slices of one stream to a single daemon —
// chunked so the producer lanes genuinely interleave — while other
// goroutines hammer the read endpoints mid-stream. Afterwards every sampled
// counter must equal the single-threaded reference sketch exactly: the
// HTTP-level statement of the E11/E12 deviation-0 invariant for concurrent
// producers.
func TestConcurrentUpdateExactness(t *testing.T) {
	cfg := Config{
		Width: 1024, Depth: 4, K: 48, Seed: 13,
		Engine:    engine.Config{Workers: 3, BatchSize: 101},
		Producers: 4,
	}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()

	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	s := stream.Zipf(xrand.New(77), 1<<14, 80_000, 1.1)
	for _, u := range s.Updates {
		reference.Update(u.Item, float64(u.Delta))
	}

	const writers = 8
	const chunk = 512
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			// Writer wid owns every writers-th update: the slices are
			// disjoint and together cover the stream exactly once.
			var own []engine.Update
			for i := wid; i < len(s.Updates); i += writers {
				own = append(own, engine.Update{Item: s.Updates[i].Item, Delta: float64(s.Updates[i].Delta)})
			}
			for start := 0; start < len(own); start += chunk {
				end := min(start+chunk, len(own))
				if err := client.Update(ctx, own[start:end]); err != nil {
					errs <- fmt.Errorf("writer %d: %w", wid, err)
					return
				}
			}
		}(wid)
	}
	// Concurrent readers: mid-stream queries must stay consistent (and under
	// -race, prove the snapshot cache and barrier lock don't race the lanes).
	readStop := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-readStop:
					return
				default:
				}
				if _, err := client.Query(ctx, 1, 2, 3); err != nil {
					errs <- fmt.Errorf("mid-stream query: %w", err)
					return
				}
				if _, err := client.Stats(ctx); err != nil {
					errs <- fmt.Errorf("mid-stream stats: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(readStop)
	readWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Counter-for-counter exactness: a dense sample of the universe plus
	// every reference top-k item must match the single-threaded sketch.
	items := make([]uint64, 0, 1<<10)
	for item := uint64(0); item < 1<<14; item += 17 {
		items = append(items, item)
	}
	for _, ic := range reference.TopK() {
		items = append(items, ic.Item)
	}
	for start := 0; start < len(items); start += 256 {
		end := min(start+256, len(items))
		estimates, err := client.Query(ctx, items[start:end]...)
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range items[start:end] {
			if want := reference.Estimate(item); estimates[i] != want {
				t.Fatalf("estimate(%d) after concurrent ingestion = %v, reference = %v (deviation %v)",
					item, estimates[i], want, estimates[i]-want)
			}
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != reference.TotalMass() {
		t.Fatalf("total mass after concurrent ingestion %v != reference %v", stats.TotalMass, reference.TotalMass())
	}
	if stats.Updates != int64(len(s.Updates)) {
		t.Fatalf("stats count %d updates, want %d", stats.Updates, len(s.Updates))
	}
	if stats.Producers != cfg.Producers {
		t.Fatalf("stats report %d producers, want %d", stats.Producers, cfg.Producers)
	}
}

// TestUpdateJSON exercises the JSON ingestion path end to end.
func TestUpdateJSON(t *testing.T) {
	_, client := testDaemon(t, Config{Width: 256, Depth: 3, K: 8, Seed: 5})
	hs := client.base

	resp, err := http.Post(hs+"/v1/update", contentTypeJSON,
		strings.NewReader(`{"updates":[{"item":7,"delta":5},{"item":8,"delta":2},{"item":7,"delta":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON update: HTTP %d", resp.StatusCode)
	}
	estimates, err := client.Query(context.Background(), 7, 8, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if estimates[0] < 6 || estimates[1] < 2 {
		t.Fatalf("estimates after JSON update: %v", estimates)
	}
}

// postMerge posts raw bytes at /v1/merge and returns status and body.
func postMerge(t *testing.T, client *Client, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(client.base+"/v1/merge", contentTypeSnapshot, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(respBody)
}

// TestMergeRejectsBadPayloads: the encoding error paths exercised over HTTP.
// Truncated bodies, wrong family bytes and mismatched dimensions must come
// back as 4xx with a useful message — never a panic, and never a poisoned
// daemon.
func TestMergeRejectsBadPayloads(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 3}
	_, client := testDaemon(t, cfg)
	ctx := context.Background()

	// A healthy compatible snapshot to corrupt: the bare Count-Min encoding
	// is accepted by /v1/merge alongside full tracker snapshots.
	good, err := func() ([]byte, error) {
		cm := sketch.NewCountMin(xrand.New(cfg.Seed), cfg.Width, cfg.Depth)
		cm.Update(1, 1)
		return cm.MarshalBinary()
	}()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		body     []byte
		wantWord string // substring the error message must carry
	}{
		{"empty body", nil, "empty body"},
		{"garbage", []byte("hello sketchd"), "magic"},
		{"truncated header", good[:10], "truncated"},
		{"truncated payload", good[:len(good)-9], "header claims"},
		{"wrong family byte", corrupt(good, 6, 0xFF), "family"},
		{"wrong kind", encodeBloom(t), "cannot merge"},
		{"mismatched width/depth", mismatchedSnapshot(t, cfg.Seed), "dimension mismatch"},
		{"different hash seed", differentSeedSnapshot(t, cfg), "hash mismatch"},
	}
	for _, tc := range cases {
		status, body := postMerge(t, client, tc.body)
		if status < 400 || status > 499 {
			t.Errorf("%s: HTTP %d, want 4xx (body %q)", tc.name, status, body)
		}
		if !strings.Contains(body, tc.wantWord) {
			t.Errorf("%s: error %q does not mention %q", tc.name, body, tc.wantWord)
		}
	}

	// The daemon must still be fully alive: a valid merge and a query work.
	if err := client.Merge(ctx, good); err != nil {
		t.Fatalf("valid merge after rejected ones: %v", err)
	}
	estimates, err := client.Query(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if estimates[0] != 1 {
		t.Fatalf("estimate(1) = %v after merging a single update", estimates[0])
	}
}

// TestUpdateRejectsBadPayloads: the binary batch decoder's error paths over
// HTTP.
func TestUpdateRejectsBadPayloads(t *testing.T) {
	_, client := testDaemon(t, Config{Width: 128, Depth: 3, K: 8})

	goodBatch := AppendBatch(nil, []engine.Update{{Item: 1, Delta: 2}})
	for name, body := range map[string][]byte{
		"truncated batch":  goodBatch[:len(goodBatch)-3],
		"bad batch magic":  corrupt(goodBatch, 0, 'X'),
		"lying count word": corrupt(goodBatch, 7, 9),
	} {
		resp, err := http.Post(client.base+"/v1/update", contentTypeBatch, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}

	// Unparseable JSON and an unsupported content type.
	resp, err := http.Post(client.base+"/v1/update", contentTypeJSON, strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(client.base+"/v1/update", "text/csv", strings.NewReader("1,2"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("csv: HTTP %d, want 415", resp.StatusCode)
	}
}

// TestSnapshotRecovery: the ROADMAP's snapshot-shipping item. A daemon
// ingests a stream, ships its snapshot to disk, dies; a new daemon pointed
// at the same directory recovers counters bit-identically — its /v1/snapshot
// bytes equal the old daemon's exactly.
func TestSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Width: 512, Depth: 4, K: 32, Seed: 21, SnapshotDir: dir}
	srv, client := testDaemon(t, cfg)
	ctx := context.Background()

	s := stream.Zipf(xrand.New(31), 1<<14, 20_000, 1.1)
	if err := client.Update(ctx, toEngineUpdates(s.Updates)); err != nil {
		t.Fatal(err)
	}
	before, err := client.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh daemon on the same directory must recover the exact
	// state — same snapshot bytes, same estimates.
	_, client2 := testDaemon(t, cfg)
	after, err := client2.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot after recovery differs: %d vs %d bytes (counters not bit-identical)",
			len(before), len(after))
	}
	var reference sketch.HeavyHitterTracker
	if err := reference.UnmarshalBinary(before); err != nil {
		t.Fatal(err)
	}
	estimates, err := client2.Query(ctx, 1, 2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range []uint64{1, 2, 3, 4, 5} {
		if want := reference.Estimate(item); estimates[i] != want {
			t.Fatalf("estimate(%d) after recovery = %v, want %v", item, estimates[i], want)
		}
	}
}

// TestBatchRoundTrip: the binary batch codec in isolation.
func TestBatchRoundTrip(t *testing.T) {
	in := []engine.Update{{Item: 1, Delta: 2.5}, {Item: 1 << 60, Delta: -3}, {Item: 0, Delta: 0}}
	out, err := DecodeBatch(AppendBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d updates, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("update %d: %v != %v", i, out[i], in[i])
		}
	}
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("empty batch: expected error")
	}
}

// TestBatchColumnsRoundTrip: the columnar encoder/decoder pair must produce
// exactly the record encoder's wire bytes, round-trip losslessly, and append
// into reused buffers without clobbering prior contents.
func TestBatchColumnsRoundTrip(t *testing.T) {
	items := []uint64{1, 1 << 60, 0}
	deltas := []float64{2.5, -3, 0}
	records := []engine.Update{{Item: 1, Delta: 2.5}, {Item: 1 << 60, Delta: -3}, {Item: 0, Delta: 0}}

	colBytes := AppendBatchColumns(nil, items, deltas)
	recBytes := AppendBatch(nil, records)
	if !bytes.Equal(colBytes, recBytes) {
		t.Fatal("AppendBatchColumns wire bytes differ from AppendBatch")
	}

	// Decode appends after existing contents (the lanes reset to [:0], but
	// the contract is append).
	gotItems, gotDeltas, err := DecodeBatchColumns(colBytes, []uint64{7}, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	wantItems := append([]uint64{7}, items...)
	wantDeltas := append([]float64{8}, deltas...)
	if len(gotItems) != len(wantItems) || len(gotDeltas) != len(wantDeltas) {
		t.Fatalf("decoded %d/%d entries, want %d/%d", len(gotItems), len(gotDeltas), len(wantItems), len(wantDeltas))
	}
	for i := range wantItems {
		if gotItems[i] != wantItems[i] || gotDeltas[i] != wantDeltas[i] {
			t.Fatalf("entry %d: (%d, %v), want (%d, %v)", i, gotItems[i], gotDeltas[i], wantItems[i], wantDeltas[i])
		}
	}

	if _, _, err := DecodeBatchColumns(colBytes[:len(colBytes)-1], nil, nil); err == nil {
		t.Fatal("truncated columnar batch: expected error")
	}
	if _, _, err := DecodeBatchColumns([]byte("XXXXXXXX"), nil, nil); err == nil {
		t.Fatal("bad magic: expected error")
	}
}

// corrupt returns a copy of data with one byte overwritten.
func corrupt(data []byte, offset int, b byte) []byte {
	out := append([]byte{}, data...)
	out[offset] = b
	return out
}

// encodeBloom serializes a Bloom filter — a valid encoding of the wrong kind.
func encodeBloom(t *testing.T) []byte {
	t.Helper()
	data, err := sketch.NewBloomFilter(xrand.New(1), 256, 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mismatchedSnapshot serializes a Count-Min with the right seed but the
// wrong dimensions.
func mismatchedSnapshot(t *testing.T, seed uint64) []byte {
	t.Helper()
	data, err := sketch.NewCountMin(xrand.New(seed), 64, 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// differentSeedSnapshot serializes a Count-Min with the right dimensions but
// hash functions drawn from a different seed.
func differentSeedSnapshot(t *testing.T, cfg Config) []byte {
	t.Helper()
	data, err := sketch.NewCountMin(xrand.New(cfg.Seed+1), cfg.Width, cfg.Depth).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPartitionModeOverTheWire: a partition-mode daemon must be
// indistinguishable from a replica-mode one at the API — same estimates
// (bit for bit against the single-threaded reference), interoperable
// snapshots/merges — while /v1/stats shows the mode and the memory the
// choice buys: sketch-size resident counters instead of workers x that.
func TestPartitionModeOverTheWire(t *testing.T) {
	base := Config{Width: 512, Depth: 4, K: 32, Seed: 17}
	repCfg, partCfg := base, base
	repCfg.Engine = engine.Config{Workers: 4, BatchSize: 101}
	partCfg.Engine = engine.Config{Workers: 4, BatchSize: 101, Partition: true}
	_, repClient := testDaemon(t, repCfg)
	_, partClient := testDaemon(t, partCfg)
	ctx := context.Background()
	size := base.Width * base.Depth

	// Before any ingest a replica daemon holds no counters at all; the
	// partitioned one owns its column slices from the start.
	for _, c := range []struct {
		client *Client
		words  int
	}{{repClient, 0}, {partClient, size}} {
		stats, err := c.client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.CounterWords != c.words {
			t.Fatalf("%s counter_words before any ingest = %d, want %d", stats.Mode, stats.CounterWords, c.words)
		}
	}

	reference := sketch.NewHeavyHitterTracker(xrand.New(base.Seed), base.Width, base.Depth, base.K)
	s := stream.Zipf(xrand.New(171), 1<<14, 40_000, 1.1)
	for _, u := range s.Updates {
		reference.Update(u.Item, float64(u.Delta))
	}

	// Partitioned daemon ingests the first half, replica daemon the second;
	// the partitioned one folds in the replica's snapshot (a full tracker
	// absorbed into column slices over the wire).
	half := len(s.Updates) / 2
	if err := partClient.Update(ctx, toEngineUpdates(s.Updates[:half])); err != nil {
		t.Fatal(err)
	}
	if err := repClient.Update(ctx, toEngineUpdates(s.Updates[half:])); err != nil {
		t.Fatal(err)
	}
	snap, err := repClient.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := partClient.Merge(ctx, snap); err != nil {
		t.Fatal(err)
	}

	for item := uint64(0); item < 1<<14; item += 37 {
		estimates, err := partClient.Query(ctx, item)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference.Estimate(item); estimates[0] != want {
			t.Fatalf("partitioned estimate(%d) = %v, reference = %v", item, estimates[0], want)
		}
	}

	repStats, err := repClient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	partStats, err := partClient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if repStats.Mode != "replica" || partStats.Mode != "partition" {
		t.Fatalf("modes = %q / %q, want replica / partition", repStats.Mode, partStats.Mode)
	}
	if partStats.CounterWords != size || partStats.Resident.Replicas != 1 {
		t.Fatalf("partition counter_words = %d (%d replicas), want %d (1)", partStats.CounterWords, partStats.Resident.Replicas, size)
	}
	// ~200 batches round-robin over 4 workers: every one has seen a batch.
	if repStats.CounterWords != 4*size || repStats.Resident.Replicas != 4 {
		t.Fatalf("replica counter_words = %d (%d replicas), want %d (4)", repStats.CounterWords, repStats.Resident.Replicas, 4*size)
	}
	if partStats.TotalMass != reference.TotalMass() {
		t.Fatalf("partitioned total mass %v != reference %v", partStats.TotalMass, reference.TotalMass())
	}
}

// TestRequestBodySizing: a body is read into one allocation of its declared
// length when that is within MaxBodyBytes and through the capped reader
// otherwise, and the answers do not depend on which: over the cap is 413
// whether declared or chunked, a body shorter than it declared is 400, and
// neither touches the sketch.
func TestRequestBodySizing(t *testing.T) {
	_, client := testDaemon(t, Config{Width: 128, Depth: 3, K: 8, MaxBodyBytes: 1024})
	ctx := context.Background()
	small := AppendBatch(nil, []engine.Update{{Item: 1, Delta: 2}})
	big := AppendBatch(nil, make([]engine.Update, 200)) // 3.2 kB of records

	post := func(body io.Reader) int {
		t.Helper()
		resp, err := http.Post(client.base+"/v1/update", contentTypeBatch, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// An io.Reader the client cannot size goes out chunked.
	chunked := func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }

	if got := post(bytes.NewReader(big)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("declared over the cap: HTTP %d, want 413", got)
	}
	if got := post(chunked(big)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked over the cap: HTTP %d, want 413", got)
	}

	// Declare the whole batch, send half of it, and half-close.
	conn, err := net.Dial("tcp", strings.TrimPrefix(client.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/update HTTP/1.1\r\nHost: sketchd\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", contentTypeBatch, len(small))
	conn.Write(small[:len(small)/2])
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("body shorter than declared: HTTP %d, want 400", resp.StatusCode)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMass != 0 || stats.Updates != 0 || stats.Batches != 0 {
		t.Fatalf("refused bodies moved the sketch: total_mass %v, updates %d, batches %d", stats.TotalMass, stats.Updates, stats.Batches)
	}

	// Within the cap both framings are accepted.
	if got := post(bytes.NewReader(small)); got != http.StatusOK {
		t.Errorf("declared within the cap: HTTP %d, want 200", got)
	}
	if got := post(chunked(small)); got != http.StatusOK {
		t.Errorf("chunked within the cap: HTTP %d, want 200", got)
	}
	if stats, err = client.Stats(ctx); err != nil || stats.TotalMass != 4 {
		t.Fatalf("after two accepted bodies: total_mass %v, err %v, want 4", stats.TotalMass, err)
	}
}
