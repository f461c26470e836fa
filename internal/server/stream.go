package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
)

// Streaming ingest ------------------------------------------------------------
//
// A producer that keeps one connection open pays the HTTP request/response
// cycle zero times instead of once per batch: it frames SKB1 batch-columns
// payloads onto the connection and the server decodes each frame straight
// into a producer lane pinned to that connection for its whole lifetime.
// The same framing travels over two transports — a raw TCP listener
// (Server.ServeStream, `sketchd -stream-addr`) and chunked HTTP
// (POST /v1/stream, full-duplex, so nothing new is needed through proxies).
//
// Frame layout (integers big-endian):
//
//	magic   [4]byte "SKS1"
//	version uint8   streamFrameVersion
//	flags   uint8   low nibble: frame type; bit 0x10: ack requested
//	length  uint32  payload length (capped by Config.MaxFrameBytes)
//	payload length bytes
//	crc     uint32  CRC-32C (Castagnoli) over header and payload
//
// Frame types and their payloads:
//
//	data  (0): seq uint64, then an SKB1 batch (see AppendBatchColumns).
//	          seq numbers start at 1 and increase by exactly 1 per frame on a
//	          session. A zero-record batch is legal: it advances seq without
//	          touching a counter (clients use it to elicit a final ack).
//	hello (1): the session name (1..256 bytes). Must be the first frame on
//	          every connection; the server answers with an ack carrying the
//	          session's applied watermark, which is what makes reconnection
//	          exactly-once — the client resumes from watermark+1 and the
//	          server absorbs any replayed frame at or below it as a no-op.
//	ack   (2): seq uint64 (highest applied frame, cumulative), gen uint64
//	          (the server's write generation). Sent server→client on every
//	          ack-requested frame, every StreamAckEvery applied frames, and
//	          in answer to hello.
//	error (3): a human-readable message; the server closes the connection
//	          after sending one. Frames the session has already acked are
//	          safe regardless — only unacked frames need replaying.
//
// One engine producer lane is created per connection and closed when the
// connection ends, so concurrent streams never contend on a lane and the
// steady state per frame is: read into a reused buffer, decode into the
// connection's reused columns, hand the columns to the pinned producer.
// Nothing on that path allocates.

// streamMagic guards the streaming ingest frame format.
var streamMagic = [4]byte{'S', 'K', 'S', '1'}

// streamFrameVersion is bumped whenever the frame layout changes.
const streamFrameVersion = 1

// Frame types (the low nibble of the flags byte).
const (
	streamFrameData  = 0x0
	streamFrameHello = 0x1
	streamFrameAck   = 0x2
	streamFrameError = 0x3
)

// streamFlagAckReq asks the server to answer this frame with an ack.
const streamFlagAckReq = 0x10

// streamTypeMask extracts the frame type from the flags byte.
const streamTypeMask = 0x0f

// streamHeaderLen is the fixed prefix: magic, version, flags, length.
const streamHeaderLen = 10

// streamTrailerLen is the CRC-32C trailer.
const streamTrailerLen = 4

// streamHelloMaxLen caps the session name carried by a hello frame.
const streamHelloMaxLen = 256

// castagnoli is the CRC-32C table shared by every frame encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrStreamFrameTooLarge is returned (wrapped, with the declared size) when a
// frame header declares a payload longer than the configured cap — the
// streaming twin of sketch.DecodeDeltaLimit's guard: a forged ~20-byte header
// must not be able to demand a multi-GiB allocation. The connection is closed
// cleanly after an error frame.
var ErrStreamFrameTooLarge = errors.New("server: stream frame payload exceeds the frame cap")

// StreamFrame is one decoded streaming-ingest frame.
type StreamFrame struct {
	// Type is one of the streamFrame* constants (data, hello, ack, error).
	Type byte
	// AckReq asks the server to acknowledge this frame immediately.
	AckReq bool
	// Payload is the frame body; for frames decoded by a frameReader it
	// aliases a reused buffer valid until the next read.
	Payload []byte
}

// AppendStreamFrame appends the binary encoding of a stream frame to buf and
// returns the extended slice. The encoding is canonical: DecodeStreamFrame of
// the result yields the frame back, and re-encoding any accepted frame
// reproduces the input bytes (the fuzz fixed point).
func AppendStreamFrame(buf []byte, f StreamFrame) []byte {
	start := len(buf)
	buf = append(buf, streamMagic[:]...)
	buf = append(buf, streamFrameVersion)
	flags := f.Type & streamTypeMask
	if f.AckReq {
		flags |= streamFlagAckReq
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, f.Payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// appendDataFrame encodes a data frame — seq plus the SKB1 batch of the given
// columns — directly into buf, with no intermediate payload slice: this is
// the client's per-frame hot path and must not allocate once buf has grown to
// its steady-state size.
func appendDataFrame(buf []byte, seq uint64, ackReq bool, items []uint64, deltas []float64) []byte {
	start := len(buf)
	buf = append(buf, streamMagic[:]...)
	buf = append(buf, streamFrameVersion)
	flags := byte(streamFrameData)
	if ackReq {
		flags |= streamFlagAckReq
	}
	buf = append(buf, flags, 0, 0, 0, 0) // length backfilled below
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = AppendBatchColumns(buf, items, deltas)
	binary.BigEndian.PutUint32(buf[start+6:start+streamHeaderLen], uint32(len(buf)-start-streamHeaderLen))
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// appendAckFrame encodes an ack frame (applied seq, server write generation)
// into buf — the server's per-ack hot path, allocation-free once buf exists.
func appendAckFrame(buf []byte, seq, gen uint64) []byte {
	start := len(buf)
	buf = append(buf, streamMagic[:]...)
	buf = append(buf, streamFrameVersion, streamFrameAck, 0, 0, 0, 16)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, gen)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// parseStreamHeader validates the fixed frame prefix and returns the type,
// ack flag and declared payload length.
func parseStreamHeader(hdr []byte) (typ byte, ackReq bool, plen uint32, err error) {
	if [4]byte(hdr[:4]) != streamMagic {
		return 0, false, 0, fmt.Errorf("server: bad stream frame magic %q", hdr[:4])
	}
	if v := hdr[4]; v != streamFrameVersion {
		return 0, false, 0, fmt.Errorf("server: unsupported stream frame version %d (want %d)", v, streamFrameVersion)
	}
	flags := hdr[5]
	if flags&^byte(streamTypeMask|streamFlagAckReq) != 0 {
		return 0, false, 0, fmt.Errorf("server: unknown stream frame flags %#x", flags)
	}
	typ = flags & streamTypeMask
	if typ > streamFrameError {
		return 0, false, 0, fmt.Errorf("server: unknown stream frame type %d", typ)
	}
	return typ, flags&streamFlagAckReq != 0, binary.BigEndian.Uint32(hdr[6:streamHeaderLen]), nil
}

// DecodeStreamFrame parses one frame from the front of data, returning the
// frame and the number of bytes consumed. maxPayload caps the declared
// payload length (ErrStreamFrameTooLarge, wrapped, beyond it); zero means no
// cap. The returned payload aliases data.
func DecodeStreamFrame(data []byte, maxPayload int) (StreamFrame, int, error) {
	var f StreamFrame
	if len(data) < streamHeaderLen {
		return f, 0, fmt.Errorf("server: truncated stream frame (need %d header bytes, have %d)", streamHeaderLen, len(data))
	}
	typ, ackReq, plen, err := parseStreamHeader(data[:streamHeaderLen])
	if err != nil {
		return f, 0, err
	}
	if maxPayload > 0 && uint64(plen) > uint64(maxPayload) {
		return f, 0, fmt.Errorf("%w: header declares %d bytes, cap is %d", ErrStreamFrameTooLarge, plen, maxPayload)
	}
	total := streamHeaderLen + int(plen) + streamTrailerLen
	if len(data) < total {
		return f, 0, fmt.Errorf("server: truncated stream frame (need %d bytes, have %d)", total, len(data))
	}
	body := data[:streamHeaderLen+int(plen)]
	want := binary.BigEndian.Uint32(data[streamHeaderLen+int(plen) : total])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return f, 0, fmt.Errorf("server: stream frame CRC mismatch (computed %#x, trailer %#x)", got, want)
	}
	f.Type, f.AckReq, f.Payload = typ, ackReq, body[streamHeaderLen:]
	return f, total, nil
}

// frameReader reads frames off a connection into reused buffers: the header
// array and the payload buffer are owned by the reader and recycled every
// call, so steady-state frame reception allocates nothing. The declared
// payload length is checked against max before any buffer grows.
type frameReader struct {
	r   io.Reader
	max int
	hdr [streamHeaderLen]byte
	buf []byte
}

func newFrameReader(r io.Reader, max int) *frameReader {
	return &frameReader{r: r, max: max}
}

// next reads one frame. The returned payload aliases the reader's buffer and
// is valid until the following next call. io.EOF before any header byte
// means a cleanly ended stream; inside a frame it comes back as
// io.ErrUnexpectedEOF.
func (fr *frameReader) next() (StreamFrame, error) {
	var f StreamFrame
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return f, err
	}
	typ, ackReq, plen, err := parseStreamHeader(fr.hdr[:])
	if err != nil {
		return f, err
	}
	if fr.max > 0 && uint64(plen) > uint64(fr.max) {
		return f, fmt.Errorf("%w: header declares %d bytes, cap is %d", ErrStreamFrameTooLarge, plen, fr.max)
	}
	need := int(plen) + streamTrailerLen
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	fr.buf = fr.buf[:need]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return f, err
	}
	want := binary.BigEndian.Uint32(fr.buf[plen:need])
	got := crc32.Update(crc32.Update(0, castagnoli, fr.hdr[:]), castagnoli, fr.buf[:plen])
	if got != want {
		return f, fmt.Errorf("server: stream frame CRC mismatch (computed %#x, trailer %#x)", got, want)
	}
	f.Type, f.AckReq, f.Payload = typ, ackReq, fr.buf[:plen]
	return f, nil
}

// ackWriter is the write side of a stream connection: buffered writes plus an
// explicit flush (a *bufio.Writer over TCP, the chunked response writer over
// HTTP).
type ackWriter interface {
	io.Writer
	Flush() error
}

// httpAckWriter adapts a chunked HTTP response to ackWriter.
type httpAckWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (h httpAckWriter) Write(p []byte) (int, error) { return h.w.Write(p) }
func (h httpAckWriter) Flush() error                { return h.rc.Flush() }

// streamSession is the exactly-once resume state of one named producer
// stream: the seq of the newest applied data frame (the watermark replayed
// frames are judged against) and whether a live connection currently owns it.
// Sessions live for the server's lifetime; attach/detach runs under
// Server.streamMu, and seq is only touched by the attached connection.
type streamSession struct {
	name     string
	seq      uint64
	attached bool
}

// streamConn is one live streaming connection: the one-shot abort hook Close
// uses to unblock its read, and the connection's reusable decode columns and
// ack buffer (touched only by the connection's own goroutine).
type streamConn struct {
	aborted atomic.Bool
	abort   func()

	items  []uint64
	deltas []float64
	ackBuf []byte
}

// registerStreamConn adds a live connection to the server's registry and
// takes a streamWG slot for it; it refuses (false) once Close has begun. The
// closed check and the Add share streamMu with Close's abort scan, so a
// connection is either registered before Close aborts (and Close waits for
// it) or never registered at all.
func (s *Server) registerStreamConn(c *streamConn) bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.streamConns[c] = struct{}{}
	s.streamWG.Add(1)
	return true
}

func (s *Server) unregisterStreamConn(c *streamConn) {
	s.streamMu.Lock()
	delete(s.streamConns, c)
	s.streamMu.Unlock()
	s.streamWG.Done()
}

// attachStreamSession finds or creates the named session and marks it owned
// by the calling connection; a session already attached to a live connection
// is refused (two writers interleaving one seq sequence could not be
// deduplicated).
func (s *Server) attachStreamSession(name string) (*streamSession, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	sess := s.streamSessions[name]
	if sess == nil {
		sess = &streamSession{name: name}
		s.streamSessions[name] = sess
	}
	if sess.attached {
		return nil, fmt.Errorf("stream session %q is already attached to a live connection", name)
	}
	sess.attached = true
	return sess, nil
}

func (s *Server) detachStreamSession(sess *streamSession) {
	s.streamMu.Lock()
	sess.attached = false
	s.streamMu.Unlock()
}

// ServeStream accepts framed streaming-ingest connections on ln until the
// listener fails or the server closes. The listener is registered with the
// server, so Server.Close shuts it (and every accepted connection) down as
// part of the drain; callers typically run ServeStream on its own goroutine.
func (s *Server) ServeStream(ln net.Listener) error {
	s.streamMu.Lock()
	if s.closed.Load() {
		s.streamMu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.streamListeners[ln] = struct{}{}
	s.streamWG.Add(1) // the accept loop's own slot; conn Adds nest under it
	s.streamMu.Unlock()
	defer func() {
		s.streamMu.Lock()
		delete(s.streamListeners, ln)
		s.streamMu.Unlock()
		s.streamWG.Done()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		c := &streamConn{}
		nc := conn
		c.abort = func() { nc.SetDeadline(time.Now()) }
		if !s.registerStreamConn(c) {
			conn.Close()
			return nil
		}
		go func() {
			defer s.unregisterStreamConn(c)
			defer nc.Close()
			fr := newFrameReader(bufio.NewReaderSize(nc, 64<<10), int(s.cfg.MaxFrameBytes))
			s.serveFrames(c, fr, bufio.NewWriterSize(nc, 32<<10), nc.RemoteAddr().String())
		}()
	}
}

// handleStream is the chunked-HTTP fallback transport: the same frame
// protocol as ServeStream, carried in the request body with acks flushed into
// the response as they happen (full-duplex where the stack supports it; on a
// proxy that buffers the response, acks arrive when the request body ends,
// which still preserves exactly-once — only latency suffers).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, contentTypeStream) {
		writeErr(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want %s)", ct, contentTypeStream)
		return
	}
	rc := http.NewResponseController(w)
	c := &streamConn{}
	c.abort = func() {
		rc.SetReadDeadline(time.Now())
		rc.SetWriteDeadline(time.Now())
	}
	if !s.registerStreamConn(c) {
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.unregisterStreamConn(c)

	// Full duplex lets acks flow while the request body is still being
	// produced; stacks that don't support it degrade to half-duplex.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", contentTypeStream)
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}
	fr := newFrameReader(bufio.NewReaderSize(r.Body, 64<<10), int(s.cfg.MaxFrameBytes))
	s.serveFrames(c, fr, httpAckWriter{w: w, rc: rc}, r.RemoteAddr)
}

// sendAck writes and flushes an ack for the given applied seq, reporting the
// current write generation. Reuses the connection's ack buffer.
func (s *Server) sendAck(c *streamConn, aw ackWriter, seq uint64) bool {
	c.ackBuf = appendAckFrame(c.ackBuf[:0], seq, uint64(s.gen.Load()))
	if _, err := aw.Write(c.ackBuf); err != nil {
		return false
	}
	return aw.Flush() == nil
}

// sendErrorFrame best-effort ships an error frame; the connection is torn
// down right after, so failures here are ignored.
func sendErrorFrame(aw ackWriter, msg string) {
	frame := AppendStreamFrame(nil, StreamFrame{Type: streamFrameError, Payload: []byte(msg)})
	if _, err := aw.Write(frame); err == nil {
		aw.Flush()
	}
}

// serveFrames is the per-connection protocol loop shared by both transports.
// The connection pins one engine producer lane from hello to disconnect, so
// the steady state per data frame is: read into the reader's reused buffer,
// decode into the connection's reused columns, hand the columns to the
// pinned producer — no allocation, no lane contention, no per-batch HTTP
// machinery. Acks are sent only after the frame's columns are flushed to the
// shard queues, so an acked frame always reaches the final merge even if the
// server closes immediately afterwards.
func (s *Server) serveFrames(c *streamConn, fr *frameReader, aw ackWriter, remote string) {
	s.streamsActive.Add(1)
	defer s.streamsActive.Add(-1)

	var (
		sess     *streamSession
		prod     *engine.Producer[*sketch.HeavyHitterTracker]
		sinceAck int
	)
	defer func() {
		if prod != nil {
			prod.Close()
		}
		if sess != nil {
			s.detachStreamSession(sess)
		}
	}()

	for {
		frame, err := fr.next()
		if err != nil {
			switch {
			case c.aborted.Load():
				sendErrorFrame(aw, "server is shutting down")
			case errors.Is(err, io.EOF):
				// The producer closed its side cleanly: a normal end of stream.
			case errors.Is(err, io.ErrUnexpectedEOF):
				// Connection died mid-frame; the truncated frame was never
				// applied, so the producer replays it after reconnecting.
			default:
				s.cfg.Logf("server: stream %s: %v", remote, err)
				sendErrorFrame(aw, err.Error())
			}
			return
		}

		switch frame.Type {
		case streamFrameHello:
			if s.bootstrapping.Load() {
				// No sessions open until the bootstrap transfer lands; the
				// error frame is retryable, so StreamUpdater redials until
				// the node is serving.
				sendErrorFrame(aw, "bootstrap in progress: state transfer from peers is not complete yet")
				return
			}
			if sess != nil {
				sendErrorFrame(aw, "duplicate hello frame")
				return
			}
			if len(frame.Payload) == 0 || len(frame.Payload) > streamHelloMaxLen {
				sendErrorFrame(aw, fmt.Sprintf("hello session name must be 1..%d bytes, got %d", streamHelloMaxLen, len(frame.Payload)))
				return
			}
			se, aerr := s.attachStreamSession(string(frame.Payload))
			if aerr != nil {
				sendErrorFrame(aw, aerr.Error())
				return
			}
			sess = se
			prod = s.eng.Producer()
			// The hello-ack reports the session watermark: everything at or
			// below it is applied, everything above it must be (re)sent.
			if !s.sendAck(c, aw, sess.seq) {
				return
			}

		case streamFrameData:
			if sess == nil {
				sendErrorFrame(aw, "data frame before hello")
				return
			}
			if len(frame.Payload) < 8 {
				sendErrorFrame(aw, fmt.Sprintf("data frame payload is %d bytes, need at least the 8-byte seq", len(frame.Payload)))
				return
			}
			seq := binary.BigEndian.Uint64(frame.Payload[:8])
			switch {
			case seq <= sess.seq:
				// A replay of an applied frame (the producer reconnected
				// before seeing its ack): acknowledge, never re-apply.
				if frame.AckReq && !s.sendAck(c, aw, sess.seq) {
					return
				}
			case seq != sess.seq+1:
				sendErrorFrame(aw, fmt.Sprintf("stream gap: frame seq %d, session %q watermark %d", seq, sess.name, sess.seq))
				return
			default:
				c.items, c.deltas = c.items[:0], c.deltas[:0]
				var derr error
				c.items, c.deltas, derr = DecodeBatchColumns(frame.Payload[8:], c.items, c.deltas)
				if derr != nil {
					sendErrorFrame(aw, derr.Error())
					return
				}
				if c.aborted.Load() {
					// Shutdown began; leave the frame unapplied and unacked so
					// the producer replays it elsewhere.
					sendErrorFrame(aw, "server is shutting down")
					return
				}
				if n := len(c.items); n > 0 {
					prod.UpdateColumns(c.items, c.deltas)
					prod.Flush()
					s.gen.Add(1)
					s.localGen.Add(1) // streamed mass is local: ours to gossip
					s.updates.Add(int64(n))
					s.batches.Add(1)
				}
				sess.seq = seq
				s.streamFrames.Add(1)
				sinceAck++
				if frame.AckReq || sinceAck >= s.cfg.StreamAckEvery {
					if !s.sendAck(c, aw, seq) {
						return
					}
					sinceAck = 0
				}
			}

		case streamFrameError:
			s.cfg.Logf("server: stream %s sent an error frame: %s", remote, frame.Payload)
			return

		default:
			sendErrorFrame(aw, fmt.Sprintf("unexpected frame type %d from a stream producer", frame.Type))
			return
		}
	}
}

// drainStreams aborts every live streaming connection and listener and waits
// for their handlers to exit — part of Server.Close, before the engine shuts
// down, so every connection's pinned producer is closed (and every acked
// frame therefore merged) by the time the final snapshot is cut.
func (s *Server) drainStreams() {
	s.streamMu.Lock()
	for ln := range s.streamListeners {
		ln.Close()
	}
	for c := range s.streamConns {
		c.aborted.Store(true)
		c.abort()
	}
	s.streamMu.Unlock()
	s.streamWG.Wait()
}
