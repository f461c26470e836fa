package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// streamDaemon is testDaemon plus a raw TCP stream listener: the server, an
// HTTP client for it, and the stream listener's address.
func streamDaemon(t *testing.T, cfg Config) (*Server, *Client, string) {
	t.Helper()
	srv, client := testDaemon(t, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeStream(ln)
	return srv, client, ln.Addr().String()
}

func TestStreamFrameRoundTrip(t *testing.T) {
	frames := []StreamFrame{
		{Type: streamFrameHello, Payload: []byte("session-a")},
		{Type: streamFrameAck, Payload: binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 7), 42)},
		{Type: streamFrameError, Payload: []byte("boom")},
		{Type: streamFrameData, AckReq: true, Payload: append(binary.BigEndian.AppendUint64(nil, 1), AppendBatchColumns(nil, []uint64{3, 5}, []float64{1, -2})...)},
		{Type: streamFrameData, Payload: append(binary.BigEndian.AppendUint64(nil, 2), AppendBatchColumns(nil, nil, nil)...)},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendStreamFrame(wire, f)
	}

	// Byte-slice decoding walks the concatenation frame by frame.
	rest := wire
	for i, want := range frames {
		got, n, err := DecodeStreamFrame(rest, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.AckReq != want.AckReq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d round-trip mismatch: got %+v want %+v", i, got, want)
		}
		// Re-encoding is a fixed point of the wire bytes.
		if re := AppendStreamFrame(nil, got); !bytes.Equal(re, rest[:n]) {
			t.Fatalf("frame %d re-encode differs from wire bytes", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}

	// The io.Reader path decodes the same stream.
	fr := newFrameReader(bytes.NewReader(wire), 0)
	for i, want := range frames {
		got, err := fr.next()
		if err != nil {
			t.Fatalf("reader frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.AckReq != want.AckReq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("reader frame %d mismatch", i)
		}
	}
	if _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}

	// appendDataFrame (the allocation-free encoder) produces exactly what
	// the generic encoder would.
	generic := AppendStreamFrame(nil, frames[3])
	direct := appendDataFrame(nil, 1, true, []uint64{3, 5}, []float64{1, -2})
	if !bytes.Equal(generic, direct) {
		t.Fatal("appendDataFrame differs from AppendStreamFrame for the same data frame")
	}

	// Corruption is caught: a flipped payload byte fails the CRC, a flipped
	// unknown flag bit is rejected, truncation is reported.
	bad := append([]byte(nil), generic...)
	bad[streamHeaderLen] ^= 0xff
	if _, _, err := DecodeStreamFrame(bad, 0); err == nil {
		t.Fatal("corrupted payload decoded without error")
	}
	bad = append([]byte(nil), generic...)
	bad[5] |= 0x80
	if _, _, err := DecodeStreamFrame(bad, 0); err == nil {
		t.Fatal("unknown flag bit decoded without error")
	}
	if _, _, err := DecodeStreamFrame(generic[:len(generic)-1], 0); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
}

func TestStreamFrameLengthCap(t *testing.T) {
	// Decode level: a forged header demanding far more than the cap is
	// refused with the typed error before any allocation.
	hdr := append([]byte(nil), streamMagic[:]...)
	hdr = append(hdr, streamFrameVersion, streamFrameData)
	hdr = binary.BigEndian.AppendUint32(hdr, 1<<31)
	if _, _, err := DecodeStreamFrame(hdr, 1<<20); !errors.Is(err, ErrStreamFrameTooLarge) {
		t.Fatalf("want ErrStreamFrameTooLarge from DecodeStreamFrame, got %v", err)
	}
	fr := newFrameReader(bytes.NewReader(hdr), 1<<20)
	if _, err := fr.next(); !errors.Is(err, ErrStreamFrameTooLarge) {
		t.Fatalf("want ErrStreamFrameTooLarge from frameReader, got %v", err)
	}

	// Live: a connection sending the forged header gets an error frame
	// naming the cap and a clean close — the server never tries to read or
	// allocate the claimed payload.
	srv, _, addr := streamDaemon(t, Config{Width: 256, Depth: 3, K: 16, Seed: 5, MaxFrameBytes: 1 << 16})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := newFrameReader(bufio.NewReader(conn), 0)
	mustWrite(t, conn, AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("cap-test")}))
	if f := mustRead(t, rd); f.Type != streamFrameAck {
		t.Fatalf("want hello ack, got frame type %d", f.Type)
	}
	mustWrite(t, conn, hdr)
	f := mustRead(t, rd)
	if f.Type != streamFrameError {
		t.Fatalf("want error frame, got type %d", f.Type)
	}
	if !bytes.Contains(f.Payload, []byte("cap")) {
		t.Fatalf("error frame does not name the cap: %s", f.Payload)
	}
	if _, err := rd.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean close after the error frame, got %v", err)
	}
	_ = srv
}

func mustWrite(t *testing.T, w io.Writer, data []byte) {
	t.Helper()
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, fr *frameReader) StreamFrame {
	t.Helper()
	f, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStreamEqualsPostEqualsReference is the tentpole invariant: updates
// pushed over concurrent stream connections (raw TCP and chunked HTTP) and
// concurrent per-POST lanes, with snapshots racing mid-flight, converge to
// counters identical to the single-threaded reference. Run under -race in CI.
func TestStreamEqualsPostEqualsReference(t *testing.T) {
	cfg := Config{Width: 1024, Depth: 4, K: 48, Seed: 13, Producers: 3,
		Engine: engine.Config{Workers: 3, BatchSize: 101}}
	srv, client, addr := streamDaemon(t, cfg)
	ctx := context.Background()

	const universe = 1 << 16
	s := stream.Zipf(xrand.New(77), universe, 60_000, 1.1)
	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	for _, u := range s.Updates {
		reference.Update(u.Item, float64(u.Delta))
	}

	// Four pushers, disjoint strided quarters: raw TCP stream, HTTP stream,
	// and two POST lanes.
	const pushers = 4
	errs := make([]error, pushers)
	var wg sync.WaitGroup
	push := func(idx int, fn func(items []uint64, deltas []float64) error, closeFn func() error) {
		defer wg.Done()
		var items []uint64
		var deltas []float64
		for i := idx; i < len(s.Updates); i += pushers {
			items = append(items, s.Updates[i].Item)
			deltas = append(deltas, float64(s.Updates[i].Delta))
			if len(items) >= 700 {
				if err := fn(items, deltas); err != nil {
					errs[idx] = err
					return
				}
				items, deltas = items[:0], deltas[:0]
			}
		}
		if len(items) > 0 {
			if err := fn(items, deltas); err != nil {
				errs[idx] = err
				return
			}
		}
		if closeFn != nil {
			errs[idx] = closeFn()
		}
	}

	suTCP, err := DialStream(addr, StreamConfig{Window: 8, AckEvery: 3, BatchSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	suHTTP, err := DialStream(client.base, StreamConfig{Window: 4, AckEvery: 2, BatchSize: 450})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(pushers)
	go push(0, suTCP.UpdateColumns, suTCP.Close)
	go push(1, suHTTP.UpdateColumns, suHTTP.Close)
	for lane := 2; lane < pushers; lane++ {
		go push(lane, func(items []uint64, deltas []float64) error {
			return client.UpdateColumns(ctx, items, deltas)
		}, nil)
	}

	// Snapshots race the ingestion: the barrier must stay consistent while
	// stream lanes and POST lanes interleave.
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; i < 10; i++ {
			if _, err := client.Snapshot(ctx); err != nil {
				t.Errorf("mid-flight snapshot: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-snapDone
	for idx, err := range errs {
		if err != nil {
			t.Fatalf("pusher %d: %v", idx, err)
		}
	}

	snap, _, err := srv.snapshotGen()
	if err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < universe; item += 37 {
		if got, want := snap.Estimate(item), reference.Estimate(item); got != want {
			t.Fatalf("item %d: stream+post estimate %v, reference %v", item, got, want)
		}
	}
	if got, want := snap.TotalMass(), reference.TotalMass(); got != want {
		t.Fatalf("total mass %v, reference %v", got, want)
	}
}

// TestStreamKillMidFrameResume drives the protocol with raw frames: a
// connection dies halfway through a frame, the producer reconnects, learns
// the applied watermark from the hello ack, replays its unacked tail with
// deliberate duplicates — and every frame lands exactly once.
func TestStreamKillMidFrameResume(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 16, Seed: 3}
	srv, _, addr := streamDaemon(t, cfg)

	frame := func(seq uint64, ackReq bool, item uint64) []byte {
		return appendDataFrame(nil, seq, ackReq, []uint64{item}, []float64{1})
	}
	readAck := func(t *testing.T, fr *frameReader) uint64 {
		t.Helper()
		f := mustRead(t, fr)
		if f.Type != streamFrameAck {
			t.Fatalf("want ack frame, got type %d (%s)", f.Type, f.Payload)
		}
		return binary.BigEndian.Uint64(f.Payload[:8])
	}

	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fr1 := newFrameReader(bufio.NewReader(conn1), 0)
	mustWrite(t, conn1, AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("kill-test")}))
	if w := readAck(t, fr1); w != 0 {
		t.Fatalf("fresh session watermark = %d, want 0", w)
	}
	mustWrite(t, conn1, frame(1, false, 100))
	mustWrite(t, conn1, frame(2, true, 101))
	if w := readAck(t, fr1); w != 2 {
		t.Fatalf("ack watermark = %d, want 2", w)
	}
	// Kill the connection halfway through frame 3: the server must treat the
	// truncated frame as if it was never sent.
	half := frame(3, true, 102)
	mustWrite(t, conn1, half[:len(half)/2])
	conn1.Close()

	// Reconnect: the hello ack reports watermark 2 (acked frames survived),
	// a replay of frame 2 is absorbed without double-counting, and the tail
	// proceeds from 3.
	var fr2 *frameReader
	var conn2 net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn2, err = net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fr2 = newFrameReader(bufio.NewReader(conn2), 0)
		mustWrite(t, conn2, AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte("kill-test")}))
		f := mustRead(t, fr2)
		if f.Type == streamFrameAck {
			if w := binary.BigEndian.Uint64(f.Payload[:8]); w != 2 {
				t.Fatalf("post-kill watermark = %d, want 2", w)
			}
			break
		}
		// The server may not have reaped conn1 yet ("session busy"): retry.
		conn2.Close()
		if time.Now().After(deadline) {
			t.Fatalf("session still busy after conn1 died: %s", f.Payload)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer conn2.Close()
	mustWrite(t, conn2, frame(2, true, 101)) // deliberate duplicate
	if w := readAck(t, fr2); w != 2 {
		t.Fatalf("duplicate ack watermark = %d, want 2", w)
	}
	mustWrite(t, conn2, frame(3, false, 102))
	mustWrite(t, conn2, frame(4, true, 103))
	if w := readAck(t, fr2); w != 4 {
		t.Fatalf("final watermark = %d, want 4", w)
	}

	snap, _, err := srv.snapshotGen()
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range []uint64{100, 101, 102, 103} {
		if got := snap.Estimate(item); got != 1 {
			t.Fatalf("item %d counted %v times, want exactly 1", item, got)
		}
	}
}

// killableProxy forwards TCP bytes to a backend and can kill every live hop
// on demand — the harness for exercising StreamUpdater's reconnect path.
type killableProxy struct {
	ln      net.Listener
	backend string
	mu      sync.Mutex
	conns   []net.Conn
}

func newKillableProxy(t *testing.T, backend string) *killableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{ln: ln, backend: backend}
	go p.serve()
	t.Cleanup(func() { ln.Close(); p.kill() })
	return p
}

func (p *killableProxy) addr() string { return p.ln.Addr().String() }

func (p *killableProxy) serve() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, client, server)
		p.mu.Unlock()
		go func() { io.Copy(server, client); server.Close() }()
		go func() { io.Copy(client, server); client.Close() }()
	}
}

func (p *killableProxy) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestStreamUpdaterReconnect kills the transport under a live StreamUpdater
// twice mid-stream; the updater must reconnect, replay its unacked tail, and
// still land every update exactly once.
func TestStreamUpdaterReconnect(t *testing.T) {
	cfg := Config{Width: 1024, Depth: 4, K: 32, Seed: 21}
	srv, _, addr := streamDaemon(t, cfg)
	proxy := newKillableProxy(t, addr)

	su, err := DialStream(proxy.addr(), StreamConfig{Window: 8, AckEvery: 2, BatchSize: 50, RetryWait: 20 * time.Millisecond, MaxAttempts: 20})
	if err != nil {
		t.Fatal(err)
	}

	const universe = 1 << 12
	s := stream.Zipf(xrand.New(31), universe, 6_000, 1.2)
	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	for _, u := range s.Updates {
		reference.Update(u.Item, float64(u.Delta))
	}
	for i, u := range s.Updates {
		if err := su.Update(u.Item, float64(u.Delta)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if i == len(s.Updates)/3 || i == 2*len(s.Updates)/3 {
			proxy.kill()
		}
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}

	snap, _, err := srv.snapshotGen()
	if err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < universe; item += 7 {
		if got, want := snap.Estimate(item), reference.Estimate(item); got != want {
			t.Fatalf("item %d: estimate %v after reconnects, reference %v", item, got, want)
		}
	}
	if got, want := snap.TotalMass(), reference.TotalMass(); got != want {
		t.Fatalf("total mass %v, reference %v", got, want)
	}
}

// TestStreamHTTPFallback pushes through chunked POST /v1/stream only and
// checks exactness plus the stream counters in /v1/stats.
func TestStreamHTTPFallback(t *testing.T) {
	cfg := Config{Width: 512, Depth: 4, K: 32, Seed: 9}
	srv, client := testDaemon(t, cfg)

	su, err := DialStream(client.base, StreamConfig{Session: "http-fallback", BatchSize: 100, AckEvery: 2, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	reference := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
	for i := uint64(0); i < 2_000; i++ {
		item, delta := i%257, float64(i%5+1)
		reference.Update(item, delta)
		if err := su.Update(item, delta); err != nil {
			t.Fatal(err)
		}
	}
	if err := su.Sync(); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.StreamsActive != 1 || stats.StreamSessions != 1 || stats.StreamFrames == 0 {
		t.Fatalf("stats = active %d, sessions %d, frames %d; want 1 active, 1 session, >0 frames",
			stats.StreamsActive, stats.StreamSessions, stats.StreamFrames)
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}

	snap, _, err := srv.snapshotGen()
	if err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 257; item++ {
		if got, want := snap.Estimate(item), reference.Estimate(item); got != want {
			t.Fatalf("item %d: estimate %v over HTTP stream, reference %v", item, got, want)
		}
	}
}

// TestStreamServerCloseDrains proves the ack contract across a graceful
// shutdown: every frame the server acknowledged is in the final snapshot and
// survives a restart, even though the stream connection was still open when
// Close began.
func TestStreamServerCloseDrains(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Width: 256, Depth: 3, K: 16, Seed: 17, SnapshotDir: dir}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeStream(ln)

	su, err := DialStream(ln.Addr().String(), StreamConfig{Session: "drain-test", BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1_000; i++ {
		if err := su.Update(i%61, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := su.Sync(); err != nil {
		t.Fatal(err)
	}

	// Close with the connection still open: the drain must abort it, close
	// its pinned producer, and only then cut the final snapshot.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	su.teardown() // the server is gone; just drop the transport

	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	snap, _, err := restarted.snapshotGen()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := uint64(0); i < 61; i++ {
		total += snap.Estimate(i)
	}
	if total < 1_000 {
		t.Fatalf("recovered mass over pushed items = %v, want >= 1000 (acked frames were lost)", total)
	}
}

// TestStreamSessionBusy: a session can have only one live connection.
func TestStreamSessionBusy(t *testing.T) {
	_, _, addr := streamDaemon(t, Config{Width: 256, Depth: 3, K: 16, Seed: 2})
	su, err := DialStream(addr, StreamConfig{Session: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	defer su.Close()
	_, err = DialStream(addr, StreamConfig{Session: "busy", MaxAttempts: 2, RetryWait: 10 * time.Millisecond})
	if err == nil {
		t.Fatal("second connection on a busy session succeeded")
	}
	var remote *StreamRemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want a StreamRemoteError, got %v", err)
	}
}

// TestStreamEndpointRejectsWrongContentType: the HTTP fallback refuses
// non-stream bodies up front.
func TestStreamEndpointRejectsWrongContentType(t *testing.T) {
	srv, err := New(Config{Width: 256, Depth: 3, K: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := hs.Client().Post(hs.URL+"/v1/stream", contentTypeJSON, bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 415 {
		t.Fatalf("status = %d, want 415", resp.StatusCode)
	}
}

// BenchmarkE17StreamSteadyState measures the steady-state cost of one data
// frame through the whole pipeline — client encode, TCP, server frame read,
// decode into the pinned lane's columns, engine dispatch — and reports
// allocations: the acceptance bar is zero allocs/op once buffers have
// reached their steady-state sizes. The workload keeps to 64 distinct items
// (the tracker's candidate capacity), so the sketch side updates candidates
// in place.
func BenchmarkE17StreamSteadyState(b *testing.B) {
	srv, err := New(Config{Width: 4096, Depth: 4, K: 64, Seed: 1, Engine: engine.Config{Workers: 2}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeStream(ln)
	su, err := DialStream(ln.Addr().String(), StreamConfig{Window: 16, AckEvery: 8})
	if err != nil {
		b.Fatal(err)
	}

	const frameUpdates = 512
	items := make([]uint64, frameUpdates)
	deltas := make([]float64, frameUpdates)
	for i := range items {
		items[i] = uint64(i % 64)
		deltas[i] = 1
	}
	// Warm-up: grow every reused buffer to steady-state size, populate the
	// engine free lists and the tracker's candidate set.
	for i := 0; i < 256; i++ {
		if err := su.UpdateColumns(items, deltas); err != nil {
			b.Fatal(err)
		}
	}
	if err := su.Sync(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.SetBytes(frameUpdates * batchRecordLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := su.UpdateColumns(items, deltas); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := su.Close(); err != nil {
		b.Fatal(err)
	}
}
