package server

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// StreamConfig shapes a StreamUpdater.
type StreamConfig struct {
	// Session names the exactly-once resume watermark this producer's frames
	// accumulate under on the server. Two live connections cannot share a
	// session, and a session's seq numbering is cumulative for the server's
	// lifetime — reuse a name only to resume that same logical producer.
	// Empty means a fresh random name (no resumption across process
	// restarts, full resumption across reconnects of this updater).
	Session string
	// Window is the maximum number of unacknowledged frames in flight before
	// Update blocks waiting for an ack; zero means 64.
	Window int
	// AckEvery is how often an ack is explicitly requested, in frames; zero
	// means Window/2, and values above Window are clamped to it so a full
	// window always has a requested ack outstanding.
	AckEvery int
	// BatchSize caps the updates carried by one data frame; zero means 4096.
	BatchSize int
	// MaxAttempts bounds consecutive reconnection attempts before an
	// operation fails; zero means 5.
	MaxAttempts int
	// RetryWait is the pause between reconnection attempts; zero means
	// 100ms.
	RetryWait time.Duration
	// DialTimeout bounds one connection attempt; zero means 5s.
	DialTimeout time.Duration
	// HTTPClient, when the target is an http(s):// base URL, issues the
	// chunked POST /v1/stream request; nil means a zero-value http.Client
	// (no timeout — the request intentionally lives as long as the stream).
	HTTPClient *http.Client
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Session == "" {
		var b [12]byte
		rand.Read(b[:])
		c.Session = "stream-" + hex.EncodeToString(b[:])
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.AckEvery <= 0 {
		c.AckEvery = c.Window / 2
	}
	if c.AckEvery < 1 {
		c.AckEvery = 1
	}
	if c.AckEvery > c.Window {
		c.AckEvery = c.Window
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4096
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.RetryWait <= 0 {
		c.RetryWait = 100 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// ErrStreamSessionLost means a reconnect found the server's session watermark
// behind frames this producer no longer holds (the server restarted and
// stream sessions do not survive restarts): the updater cannot prove how much
// of the unacked tail was lost, so it refuses to continue rather than
// silently drop or double-count.
var ErrStreamSessionLost = errors.New("server: stream session lost (server watermark regressed past the replayable window)")

// ErrStreamClosed is returned by operations on a closed StreamUpdater.
var ErrStreamClosed = errors.New("server: stream updater is closed")

// StreamRemoteError is an error frame the server sent before closing the
// connection (protocol violations, oversized frames, busy sessions).
type StreamRemoteError struct{ Msg string }

func (e *StreamRemoteError) Error() string {
	return fmt.Sprintf("server: stream error frame: %s", e.Msg)
}

// streamLink is one live transport under a StreamUpdater: the buffered frame
// writer, the frame reader carrying acks back, and the teardown hook.
type streamLink struct {
	bw      *bufio.Writer
	fr      *frameReader
	closeFn func()
}

// StreamUpdater is the persistent-connection ingest client: it frames update
// batches onto one held-open connection (raw TCP against a `sketchd
// -stream-addr` listener, or chunked HTTP against POST /v1/stream) and
// tracks the server's acks. Reconnection is automatic and exactly-once: every
// unacked frame is held verbatim, a reconnect learns the server's applied
// watermark from the hello ack, drops what the watermark covers and replays
// the rest — frames at or below the watermark are absorbed server-side as
// no-ops, so a retry after a lost ack never double-counts.
//
// The steady-state send path reuses everything (frame buffers cycle through
// the acked-frame free list, the ack reader owns its buffers), so streaming
// ingestion allocates nothing per frame. Not safe for concurrent use; give
// each goroutine its own updater (each costs the server one producer lane).
type StreamUpdater struct {
	cfg    StreamConfig
	target string
	isHTTP bool

	link *streamLink

	seq        uint64 // last frame seq assigned
	acked      uint64 // highest server-acked seq
	gen        int64  // server write generation reported by the last ack
	lastAckReq uint64 // seq of the newest frame sent with the ack-request bit

	pending []pendingFrame // unacked frames, seqs (acked, seq], FIFO
	spare   [][]byte       // recycled frame buffers

	batchItems  []uint64
	batchDeltas []float64

	err error // sticky fatal error; set by Close and unrecoverable failures
}

type pendingFrame struct {
	seq uint64
	buf []byte
}

// DialStream connects a StreamUpdater to target and performs the hello
// handshake. A target of "host:port" or "tcp://host:port" speaks the framed
// protocol over raw TCP (the `sketchd -stream-addr` listener); an
// "http(s)://..." base URL streams the same frames through chunked POST
// /v1/stream.
func DialStream(target string, cfg StreamConfig) (*StreamUpdater, error) {
	su := &StreamUpdater{cfg: cfg.withDefaults()}
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"):
		su.isHTTP = true
		su.target = strings.TrimRight(target, "/")
	case strings.HasPrefix(target, "tcp://"):
		su.target = strings.TrimPrefix(target, "tcp://")
	default:
		su.target = target
	}
	if err := su.redial(); err != nil {
		return nil, err
	}
	return su, nil
}

// Session returns the session name frames accumulate under.
func (su *StreamUpdater) Session() string { return su.cfg.Session }

// Gen returns the server's write generation as of the newest ack — the gen a
// subsequent read must carry to be guaranteed to see every acked frame.
func (su *StreamUpdater) Gen() int64 { return su.gen }

// Update queues one (item, delta); a frame ships whenever BatchSize updates
// have accumulated (or on Flush/Close).
func (su *StreamUpdater) Update(item uint64, delta float64) error {
	if su.err != nil {
		return su.err
	}
	su.batchItems = append(su.batchItems, item)
	su.batchDeltas = append(su.batchDeltas, delta)
	if len(su.batchItems) >= su.cfg.BatchSize {
		return su.flushBatch()
	}
	return nil
}

// UpdateColumns streams parallel key/delta columns, chunked into frames of at
// most BatchSize updates. The columns are encoded into the updater's own
// buffers before the call returns; the caller may reuse them immediately.
func (su *StreamUpdater) UpdateColumns(items []uint64, deltas []float64) error {
	if su.err != nil {
		return su.err
	}
	if len(items) != len(deltas) {
		return fmt.Errorf("server: UpdateColumns length mismatch (%d items, %d deltas)", len(items), len(deltas))
	}
	// Anything batched by Update ships first so frame order matches call
	// order.
	if len(su.batchItems) > 0 {
		if err := su.flushBatch(); err != nil {
			return err
		}
	}
	for len(items) > 0 {
		n := min(len(items), su.cfg.BatchSize)
		if err := su.sendColumns(items[:n], deltas[:n]); err != nil {
			return err
		}
		items, deltas = items[n:], deltas[n:]
	}
	return nil
}

// Flush ships any batched updates as a frame (every frame goes to the wire as
// it is sent). It does not wait for acks; Sync does.
func (su *StreamUpdater) Flush() error {
	if su.err != nil {
		return su.err
	}
	if len(su.batchItems) > 0 {
		return su.flushBatch()
	}
	return nil
}

// Sync flushes and then blocks until the server has acknowledged every frame
// sent so far — after Sync returns nil, all previous updates are applied and
// visible to reads at generation Gen (and, by the ack-after-apply contract,
// survive a server-side graceful shutdown).
func (su *StreamUpdater) Sync() error {
	if err := su.Flush(); err != nil {
		return err
	}
	for su.acked < su.seq {
		// The unacked tail may carry no ack-requested frame (an earlier ack
		// can cover lastAckReq while later frames were sent without the
		// bit): nudge with an empty ack-requested frame — a zero-record
		// frame advances the session seq without touching a counter.
		if su.lastAckReq <= su.acked {
			if err := su.sendFrame(nil, nil, true); err != nil {
				return err
			}
		}
		if err := su.readAck(); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and tears the connection down. The updater is unusable
// afterwards.
func (su *StreamUpdater) Close() error {
	if su.err != nil {
		if errors.Is(su.err, ErrStreamClosed) {
			return nil
		}
		err := su.err
		su.teardown()
		return err
	}
	err := su.Sync()
	su.teardown()
	su.err = ErrStreamClosed
	return err
}

func (su *StreamUpdater) teardown() {
	if su.link != nil {
		su.link.closeFn()
		su.link = nil
	}
}

// flushBatch frames the internally batched updates.
func (su *StreamUpdater) flushBatch() error {
	err := su.sendColumns(su.batchItems, su.batchDeltas)
	su.batchItems = su.batchItems[:0]
	su.batchDeltas = su.batchDeltas[:0]
	return err
}

// sendColumns frames one batch (at most BatchSize updates), blocking for acks
// when the in-flight window is full.
func (su *StreamUpdater) sendColumns(items []uint64, deltas []float64) error {
	for len(su.pending) >= su.cfg.Window {
		// The window always contains a frame with the ack bit (AckEvery <=
		// Window), so waiting here terminates.
		if err := su.readAck(); err != nil {
			return err
		}
	}
	return su.sendFrame(items, deltas, false)
}

// sendFrame encodes the next data frame into a recycled buffer, appends it to
// the pending window and writes it out at once, so the daemon ingests it while
// the producer encodes the next (transport failures reconnect and replay).
// forceAck requests an ack regardless of cadence.
func (su *StreamUpdater) sendFrame(items []uint64, deltas []float64, forceAck bool) error {
	su.seq++
	ackReq := forceAck || su.seq-su.lastAckReq >= uint64(su.cfg.AckEvery)
	buf := su.takeBuf()
	buf = appendDataFrame(buf, su.seq, ackReq, items, deltas)
	if ackReq {
		su.lastAckReq = su.seq
	}
	su.pending = append(su.pending, pendingFrame{seq: su.seq, buf: buf})
	return su.retry(func() error {
		_, err := su.link.bw.Write(buf)
		if err == nil {
			err = su.link.bw.Flush()
		}
		return err
	})
}

// readAck blocks until the acked watermark advances: normally by one ack
// frame off the wire, after a transport failure by the hello ack of the
// reconnect itself. Either way, on nil return at least the pending frames
// covered by the new watermark have been released.
func (su *StreamUpdater) readAck() error {
	if su.err != nil {
		return su.err
	}
	for {
		frame, err := su.link.fr.next()
		if err != nil {
			before := su.acked
			if rerr := su.redial(); rerr != nil {
				return rerr
			}
			if su.acked > before {
				return nil // the reconnect's hello ack advanced the watermark
			}
			// The replayed tail might carry no ack-requested frame (its one
			// ack bit may be what the hello ack just covered): nudge with an
			// empty ack-requested frame so this wait terminates.
			if su.lastAckReq <= su.acked && su.acked < su.seq {
				if err := su.sendFrame(nil, nil, true); err != nil {
					return err
				}
			}
			continue
		}
		switch frame.Type {
		case streamFrameAck:
			seq, gen, err := parseAck(frame.Payload)
			if err != nil {
				return su.fatal(err)
			}
			su.handleAck(seq, gen)
			return nil
		case streamFrameError:
			return su.fatal(&StreamRemoteError{Msg: string(frame.Payload)})
		default:
			return su.fatal(fmt.Errorf("server: unexpected frame type %d from the server", frame.Type))
		}
	}
}

// handleAck advances the acked watermark and recycles covered frame buffers.
func (su *StreamUpdater) handleAck(seq uint64, gen int64) {
	su.gen = gen
	if seq <= su.acked {
		return
	}
	su.acked = seq
	n := 0
	for n < len(su.pending) && su.pending[n].seq <= seq {
		su.spare = append(su.spare, su.pending[n].buf)
		su.pending[n].buf = nil
		n++
	}
	// Shift in place so the pending window keeps its backing array.
	su.pending = append(su.pending[:0], su.pending[n:]...)
}

func (su *StreamUpdater) takeBuf() []byte {
	if n := len(su.spare); n > 0 {
		buf := su.spare[n-1]
		su.spare = su.spare[:n-1]
		return buf[:0]
	}
	return nil
}

// retry runs op, reconnecting (and replaying unacked frames) on transport
// failure; fatal errors — server error frames, a lost session — pass through
// and stick.
func (su *StreamUpdater) retry(op func() error) error {
	if su.err != nil {
		return su.err
	}
	err := op()
	if err == nil {
		return nil
	}
	var remote *StreamRemoteError
	if errors.As(err, &remote) {
		return su.fatal(err)
	}
	if rerr := su.redial(); rerr != nil {
		return rerr
	}
	if err := op(); err != nil {
		return su.fatal(fmt.Errorf("server: stream operation failed immediately after reconnect: %w", err))
	}
	return nil
}

func (su *StreamUpdater) fatal(err error) error {
	su.err = err
	su.teardown()
	return err
}

// redial (re)establishes the transport: dial, hello, learn the server's
// applied watermark from the hello ack, drop pending frames it covers and
// replay the rest verbatim.
func (su *StreamUpdater) redial() error {
	su.teardown()
	var lastErr error
	for attempt := 0; attempt < su.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(su.cfg.RetryWait)
		}
		err := su.connect()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrStreamSessionLost) {
			return su.fatal(err)
		}
		// Handshake-time error frames (typically "session busy": the server
		// has not yet reaped the connection we just lost) are retried like
		// transport failures — the next attempt usually finds the session
		// free again.
		lastErr = err
	}
	return su.fatal(fmt.Errorf("server: stream reconnect to %s failed after %d attempts: %w", su.target, su.cfg.MaxAttempts, lastErr))
}

func (su *StreamUpdater) connect() error {
	link, err := su.dial()
	if err != nil {
		return err
	}
	hello := AppendStreamFrame(nil, StreamFrame{Type: streamFrameHello, Payload: []byte(su.cfg.Session)})
	if _, err := link.bw.Write(hello); err == nil {
		err = link.bw.Flush()
	}
	if err != nil {
		link.closeFn()
		return err
	}
	frame, err := link.fr.next()
	if err != nil {
		link.closeFn()
		return err
	}
	switch frame.Type {
	case streamFrameAck:
	case streamFrameError:
		link.closeFn()
		return &StreamRemoteError{Msg: string(frame.Payload)}
	default:
		link.closeFn()
		return fmt.Errorf("server: unexpected frame type %d in answer to hello", frame.Type)
	}
	watermark, gen, err := parseAck(frame.Payload)
	if err != nil {
		link.closeFn()
		return err
	}

	oldest := su.acked + 1 // the oldest frame we can still replay
	switch {
	case watermark > su.seq:
		link.closeFn()
		return fmt.Errorf("server: session %q watermark %d is ahead of this producer (last sent frame %d): the name is in use by another producer's history",
			su.cfg.Session, watermark, su.seq)
	case watermark+1 < oldest:
		// The server forgot acked frames (it restarted; sessions don't
		// survive restarts) and we no longer hold them to replay.
		link.closeFn()
		return fmt.Errorf("%w: session %q watermark %d, oldest replayable frame %d", ErrStreamSessionLost, su.cfg.Session, watermark, oldest)
	}
	su.handleAck(watermark, gen)

	// Replay the unacked tail verbatim; the watermark makes any overlap a
	// server-side no-op.
	for _, pf := range su.pending {
		if _, err := link.bw.Write(pf.buf); err != nil {
			link.closeFn()
			return err
		}
	}
	if err := link.bw.Flush(); err != nil {
		link.closeFn()
		return err
	}
	su.link = link
	return nil
}

func (su *StreamUpdater) dial() (*streamLink, error) {
	if !su.isHTTP {
		conn, err := net.DialTimeout("tcp", su.target, su.cfg.DialTimeout)
		if err != nil {
			return nil, err
		}
		return &streamLink{
			bw:      bufio.NewWriterSize(conn, 64<<10),
			fr:      newFrameReader(bufio.NewReaderSize(conn, 4<<10), 1<<16),
			closeFn: func() { conn.Close() },
		}, nil
	}

	// HTTP fallback: the frames travel as the chunked request body of one
	// long-lived POST /v1/stream, acks come back in the response body
	// (full-duplex on a direct connection; buffered-but-correct through
	// proxies that don't support it).
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, su.target+"/v1/stream", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", contentTypeStream)
	resp, err := su.cfg.HTTPClient.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		pw.Close()
		resp.Body.Close()
		return nil, &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return &streamLink{
		// The pipe writer blocks until the transport consumes each chunk, so
		// no extra flush semantics are needed beyond bufio's.
		bw: bufio.NewWriterSize(pw, 64<<10),
		fr: newFrameReader(bufio.NewReaderSize(resp.Body, 4<<10), 1<<16),
		closeFn: func() {
			pw.Close() // ends the request body; the handler sees a clean EOF
			resp.Body.Close()
		},
	}, nil
}
