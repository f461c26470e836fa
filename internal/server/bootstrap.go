package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/sketch"
)

// Peer bootstrap ---------------------------------------------------------------
//
// A daemon that starts without a usable local snapshot can fetch one from a
// running peer instead of rejoining the mesh blank: GET /v1/bootstrap returns
// a barrier-consistent state transfer — the serving node's full snapshot, its
// per-sender gossip watermarks, and the per-sender received-mass trackers that
// make later watermark divergences healable without loss (see deltaFlagReplace
// in wire.go). Everything is cut under one barrier hold, so the watermarks
// never claim a delta the snapshot's counters don't contain.
//
// Bootstrap response layout (SKP1; integers big-endian, CRC-32C like SKS1):
//
//	magic    [4]byte "SKP1"
//	version  uint8   bootstrapVersion
//	flags    uint8   reserved (0)
//	idLen    uint16  length of the serving node's id (1..bootstrapMaxIDLen)
//	id       idLen bytes
//	localGen uint64  serving node's local write generation at the barrier cut
//	marksLen uint32  length of the watermark JSON
//	marks    marksLen bytes: JSON object sender -> watermark; includes the
//	         serving node itself mapped to localGen, so the requester's
//	         watermark for the server aligns with the snapshot exactly
//	snapLen  uint32
//	snap     snapLen bytes: the full snapshot's versioned sketch encoding
//	nsenders uint16  per-sender tracker sections, sorted by id
//	         nsenders x (idLen uint16, id, trLen uint32, tracker bytes);
//	         the serving node's own section carries its local sketch (its
//	         contribution to the snapshot), so the requester can seed the
//	         received-mass tracker for the server too
//	crc      uint32  CRC-32C over everything before it
//
// The requester absorbs the snapshot as foreign mass (gossip never re-ships
// it), installs the watermarks and trackers, and only then opens /v1/update,
// /v1/stream, /v1/delta and its replicator.

// bootstrapMagic guards the bootstrap response format.
var bootstrapMagic = [4]byte{'S', 'K', 'P', '1'}

// bootstrapVersion is bumped whenever the response layout changes.
const bootstrapVersion = 1

// bootstrapMaxIDLen caps every node-id section of a bootstrap response, like
// streamHelloMaxLen caps stream session names.
const bootstrapMaxIDLen = 256

// bootstrapMaxMarksLen caps the watermark JSON section: even a very large
// mesh's map of id -> uint64 fits comfortably in 1 MiB.
const bootstrapMaxMarksLen = 1 << 20

// bootstrapHeaderLen is the fixed prefix: magic, version, flags, idLen.
const bootstrapHeaderLen = 8

// SendersFileName is the file the per-sender received-mass trackers are
// persisted to beside the snapshot. It is bound to the exact snapshot it was
// cut with by a CRC of the snapshot bytes: a tracker that does not match the
// counters byte for byte cannot be trusted for replace-frame subtraction, so
// a mismatched or missing sidecar degrades to the reset-resync protocol
// instead of risking a double count.
const SendersFileName = "sketchd.senders"

// BootstrapPayload is one decoded /v1/bootstrap state transfer.
type BootstrapPayload struct {
	// NodeID is the serving node's id and LocalGen its local write generation
	// at the barrier cut; together they seed the requester's watermark for
	// the server.
	NodeID   string
	LocalGen uint64
	// Watermarks are the serving node's per-sender gossip watermarks
	// (including NodeID -> LocalGen).
	Watermarks map[string]uint64
	// Snapshot is the full barrier snapshot's versioned sketch encoding.
	Snapshot []byte
	// Senders maps sender id -> the encoding of the mass the serving node
	// holds from that sender (its own id maps to its local sketch). Only
	// senders whose tracker is sound for replace-frame subtraction are
	// included, so a requester may see watermarks without a matching tracker
	// when the server itself recovered without a consistent sidecar.
	Senders map[string][]byte
}

// AppendBootstrapResponse appends the canonical binary encoding of a
// bootstrap payload to buf and returns the extended slice. Sender sections
// are emitted in sorted id order and the watermark JSON uses encoding/json's
// sorted-key object form, so encoding the same payload twice yields the same
// bytes — the fixed point FuzzDecodeBootstrapResponse checks.
func AppendBootstrapResponse(buf []byte, p BootstrapPayload) ([]byte, error) {
	if len(p.NodeID) < 1 || len(p.NodeID) > bootstrapMaxIDLen {
		return nil, fmt.Errorf("server: bootstrap node id must be 1..%d bytes, got %d", bootstrapMaxIDLen, len(p.NodeID))
	}
	marks, err := json.Marshal(p.Watermarks)
	if err != nil {
		return nil, fmt.Errorf("server: encoding bootstrap watermarks: %w", err)
	}
	start := len(buf)
	buf = append(buf, bootstrapMagic[:]...)
	buf = append(buf, bootstrapVersion, 0)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.NodeID)))
	buf = append(buf, p.NodeID...)
	buf = binary.BigEndian.AppendUint64(buf, p.LocalGen)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(marks)))
	buf = append(buf, marks...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Snapshot)))
	buf = append(buf, p.Snapshot...)
	ids := make([]string, 0, len(p.Senders))
	for id := range p.Senders {
		if len(id) < 1 || len(id) > bootstrapMaxIDLen {
			return nil, fmt.Errorf("server: bootstrap sender id must be 1..%d bytes, got %d", bootstrapMaxIDLen, len(id))
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(id)))
		buf = append(buf, id...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Senders[id])))
		buf = append(buf, p.Senders[id]...)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli)), nil
}

// DecodeBootstrapResponse parses a bootstrap response, validating the CRC,
// the per-section length caps and the structural invariants before any large
// allocation: every declared length is checked against the bytes actually
// present, so a forged header cannot demand unbounded memory. maxSection
// caps the snapshot and each tracker section; <= 0 means no cap beyond the
// input's own length.
func DecodeBootstrapResponse(data []byte, maxSection int) (*BootstrapPayload, error) {
	if maxSection <= 0 {
		maxSection = len(data)
	}
	if len(data) < bootstrapHeaderLen+8+4+4+2+4 {
		return nil, fmt.Errorf("server: truncated bootstrap response (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != bootstrapMagic {
		return nil, fmt.Errorf("server: bad bootstrap magic %q", data[:4])
	}
	if v := data[4]; v != bootstrapVersion {
		return nil, fmt.Errorf("server: unsupported bootstrap version %d (want %d)", v, bootstrapVersion)
	}
	if f := data[5]; f != 0 {
		return nil, fmt.Errorf("server: unsupported bootstrap flags %#x", f)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("server: bootstrap response CRC mismatch (computed %08x, trailer %08x)", got, want)
	}
	p := &BootstrapPayload{Watermarks: make(map[string]uint64), Senders: make(map[string][]byte)}
	rest := body[6:]
	take := func(n int, what string) ([]byte, error) {
		if n < 0 || len(rest) < n {
			return nil, fmt.Errorf("server: truncated bootstrap response (%s needs %d bytes, %d left)", what, n, len(rest))
		}
		out := rest[:n]
		rest = rest[n:]
		return out, nil
	}
	idLenB, err := take(2, "node id length")
	if err != nil {
		return nil, err
	}
	idLen := int(binary.BigEndian.Uint16(idLenB))
	if idLen < 1 || idLen > bootstrapMaxIDLen {
		return nil, fmt.Errorf("server: bootstrap node id length %d out of range 1..%d", idLen, bootstrapMaxIDLen)
	}
	id, err := take(idLen, "node id")
	if err != nil {
		return nil, err
	}
	p.NodeID = string(id)
	genB, err := take(8, "local generation")
	if err != nil {
		return nil, err
	}
	p.LocalGen = binary.BigEndian.Uint64(genB)
	marksLenB, err := take(4, "watermark length")
	if err != nil {
		return nil, err
	}
	marksLen := int(binary.BigEndian.Uint32(marksLenB))
	if marksLen > bootstrapMaxMarksLen {
		return nil, fmt.Errorf("server: bootstrap watermark section is %d bytes (cap %d)", marksLen, bootstrapMaxMarksLen)
	}
	marks, err := take(marksLen, "watermarks")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(marks, &p.Watermarks); err != nil {
		return nil, fmt.Errorf("server: bootstrap watermark JSON: %w", err)
	}
	snapLenB, err := take(4, "snapshot length")
	if err != nil {
		return nil, err
	}
	snapLen := int(binary.BigEndian.Uint32(snapLenB))
	if snapLen > maxSection {
		return nil, fmt.Errorf("server: bootstrap snapshot section is %d bytes (cap %d)", snapLen, maxSection)
	}
	if p.Snapshot, err = take(snapLen, "snapshot"); err != nil {
		return nil, err
	}
	nSendersB, err := take(2, "sender count")
	if err != nil {
		return nil, err
	}
	nSenders := int(binary.BigEndian.Uint16(nSendersB))
	for i := 0; i < nSenders; i++ {
		sidLenB, err := take(2, "sender id length")
		if err != nil {
			return nil, err
		}
		sidLen := int(binary.BigEndian.Uint16(sidLenB))
		if sidLen < 1 || sidLen > bootstrapMaxIDLen {
			return nil, fmt.Errorf("server: bootstrap sender id length %d out of range 1..%d", sidLen, bootstrapMaxIDLen)
		}
		sid, err := take(sidLen, "sender id")
		if err != nil {
			return nil, err
		}
		if _, dup := p.Senders[string(sid)]; dup {
			return nil, fmt.Errorf("server: bootstrap response repeats sender %q", sid)
		}
		trLenB, err := take(4, "tracker length")
		if err != nil {
			return nil, err
		}
		trLen := int(binary.BigEndian.Uint32(trLenB))
		if trLen > maxSection {
			return nil, fmt.Errorf("server: bootstrap tracker for %q is %d bytes (cap %d)", sid, trLen, maxSection)
		}
		tr, err := take(trLen, "tracker")
		if err != nil {
			return nil, err
		}
		p.Senders[string(sid)] = tr
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("server: bootstrap response has %d trailing bytes", len(rest))
	}
	return p, nil
}

// handleBootstrap serves one barrier-consistent state transfer. Everything —
// the full snapshot, the local sketch that seeds the requester's tracker for
// this node, the watermark map and the per-sender trackers — is cut and
// copied under one snapMu hold, and both sketch sections come from one
// localCut result (a second call could sit behind a write the first missed),
// so the sections agree with each other exactly.
func (s *Server) handleBootstrap(w http.ResponseWriter, r *http.Request) {
	requester := r.URL.Query().Get("node")

	s.snapMu.Lock()
	if s.engClosed || s.closed.Load() {
		s.snapMu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	gLocal := s.localGen.Load()
	local, err := s.localCut()
	if err != nil {
		s.snapMu.Unlock()
		writeSnapshotErr(w, err)
		return
	}
	payload := BootstrapPayload{
		NodeID:     s.cfg.NodeID,
		LocalGen:   uint64(gLocal),
		Watermarks: make(map[string]uint64, len(s.watermarks)+1),
		Senders:    make(map[string][]byte, len(s.senders)+1),
	}
	for sender, mark := range s.watermarks {
		payload.Watermarks[sender] = mark
	}
	payload.Watermarks[s.cfg.NodeID] = uint64(gLocal)
	for sender, tr := range s.senders {
		if payload.Senders[sender], err = tr.MarshalBinary(); err != nil {
			break
		}
	}
	if err == nil {
		payload.Senders[s.cfg.NodeID], err = local.MarshalBinary()
	}
	full := local
	if err == nil && s.foreign != nil {
		full, err = s.plusForeign(local)
	}
	if err == nil {
		payload.Snapshot, err = full.MarshalBinary()
	}
	s.snapMu.Unlock()

	var body []byte
	if err == nil {
		body, err = AppendBootstrapResponse(nil, payload)
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "assembling bootstrap response: %v", err)
		return
	}
	s.snapshots.Add(1)
	s.cfg.Logf("server: served %d-byte bootstrap transfer (gen %d, %d senders) to %q",
		len(body), gLocal, len(payload.Senders), requester)
	w.Header().Set("Content-Type", contentTypeBootstrap)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// bootstrapLoop fetches a state transfer from the configured sources, trying
// each in order with BootstrapRetryWait between rounds, and opens the gated
// endpoints on success. After BootstrapAttempts failed rounds the daemon
// degrades to serving empty state (surfaced as "degraded" in /v1/stats)
// rather than staying down forever.
func (s *Server) bootstrapLoop() {
	defer s.wg.Done()
	for round := 0; round < s.cfg.BootstrapAttempts; round++ {
		if round > 0 {
			select {
			case <-s.stop:
				return
			case <-time.After(s.cfg.BootstrapRetryWait):
			}
		}
		for _, src := range s.cfg.BootstrapFrom {
			select {
			case <-s.stop:
				return
			default:
			}
			err := s.bootstrapFrom(src)
			if err == nil {
				s.snapMu.Lock()
				s.bootstrapSource = src
				s.snapMu.Unlock()
				s.bootstrapping.Store(false)
				if s.cfg.SnapshotDir != "" {
					if _, serr := s.SaveSnapshot(); serr != nil {
						s.cfg.Logf("server: persisting bootstrapped state: %v", serr)
					}
				}
				s.cfg.Logf("server: bootstrap from %s complete; serving", src)
				return
			}
			s.bootstrapFailures.Add(1)
			s.cfg.Logf("server: bootstrap from %s failed (round %d/%d): %v", src, round+1, s.cfg.BootstrapAttempts, err)
		}
	}
	s.snapMu.Lock()
	s.bootstrapDegraded = true
	s.snapMu.Unlock()
	s.bootstrapping.Store(false)
	s.cfg.Logf("server: bootstrap failed after %d rounds over %d sources: serving empty state (degraded)",
		s.cfg.BootstrapAttempts, len(s.cfg.BootstrapFrom))
}

// bootstrapFrom fetches, validates and absorbs one peer's state transfer.
func (s *Server) bootstrapFrom(src string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := NewClient(src, &http.Client{Timeout: 30 * time.Second})
	payload, err := client.Bootstrap(ctx, s.cfg.NodeID)
	if err != nil {
		return err
	}
	return s.installBootstrap(payload)
}

// installBootstrap absorbs a decoded state transfer: the snapshot becomes
// foreign mass (gossip never re-ships it), the watermarks and
// per-sender trackers are installed verbatim (minus this node's own id — a
// node never receives deltas from itself). Decoding happens before the
// barrier lock; the engine's registered decoder rejects incompatible seeds
// and shapes, so a transfer from a differently-configured mesh fails here
// with no counter touched.
func (s *Server) installBootstrap(p *BootstrapPayload) error {
	snapSketch, err := s.eng.DecodeReplica(p.Snapshot)
	if err != nil {
		return fmt.Errorf("bootstrap snapshot: %w", err)
	}
	trackers := make(map[string]*sketch.HeavyHitterTracker, len(p.Senders))
	for id, enc := range p.Senders {
		if id == s.cfg.NodeID {
			continue
		}
		tr, err := s.eng.DecodeReplica(enc)
		if err != nil {
			return fmt.Errorf("bootstrap tracker for %q: %w", id, err)
		}
		trackers[id] = tr
	}

	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.engClosed || s.closed.Load() {
		return ErrServerClosed
	}
	if err := s.mergeForeign(snapSketch); err != nil {
		return fmt.Errorf("absorbing bootstrap snapshot: %w", err)
	}
	for id, tr := range trackers {
		s.senders[id] = tr
	}
	for id, mark := range p.Watermarks {
		if id == s.cfg.NodeID {
			continue
		}
		s.watermarks[id] = mark
		// Until a direct frame from this sender confirms the mark, it is
		// hearsay: a divergence on its link must heal via replace, not a
		// reset-to-0 that would re-ship mass the snapshot already carries.
		s.hearsay[id] = true
		if _, ok := s.senders[id]; !ok {
			// The source shipped a watermark without the matching tracker
			// (it recovered without a consistent sidecar itself): this
			// sender's mass inside the snapshot cannot be attributed, so a
			// replace frame from it would double-count — fall back to the
			// reset protocol for it.
			s.untracked = true
		}
	}
	s.gen.Add(1)
	s.cfg.Logf("server: absorbed bootstrap transfer from %q: %d snapshot bytes, %d watermarks, %d trackers",
		p.NodeID, len(p.Snapshot), len(p.Watermarks), len(trackers))
	return nil
}

// bootstrapGated reports whether path must answer 503 while a bootstrap is
// pending: everything under /v1/ except liveness and stats, so operators and
// the test harness can watch the transfer without being able to read or
// write state the node does not hold yet.
func bootstrapGated(path string) bool {
	switch path {
	case "/v1/healthz", "/v1/stats":
		return false
	}
	return true
}

// loadSenders restores the per-sender received-mass trackers persisted
// beside a recovered snapshot, but only when the sidecar's CRC matches the
// snapshot bytes actually recovered: a tracker cut with different counters
// would make replace-frame subtraction double-count. On any mismatch the
// daemon marks itself untracked — senders with persisted marks heal through
// the reset protocol until they re-align from scratch. Only called from the
// snapshot-recovery path in New.
func (s *Server) loadSenders(snapData []byte) {
	path := filepath.Join(s.cfg.SnapshotDir, SendersFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.cfg.Logf("server: reading sender sidecar %s: %v", path, err)
		}
		s.untracked = true
		return
	}
	var file sendersFile
	if err := json.Unmarshal(raw, &file); err != nil {
		s.cfg.Logf("server: ignoring corrupt sender sidecar %s: %v", path, err)
		s.untracked = true
		return
	}
	if got := crc32.Checksum(snapData, castagnoli); got != file.SnapCRC {
		s.cfg.Logf("server: sender sidecar %s was cut with a different snapshot (crc %08x, snapshot %08x): ignoring it",
			path, file.SnapCRC, got)
		s.untracked = true
		return
	}
	for id, enc := range file.Senders {
		tr, err := s.eng.DecodeReplica(enc)
		if err != nil {
			s.cfg.Logf("server: ignoring sender sidecar %s: tracker for %q: %v", path, id, err)
			s.senders = make(map[string]*sketch.HeavyHitterTracker)
			s.untracked = true
			return
		}
		s.senders[id] = tr
	}
	for _, id := range file.Hearsay {
		s.hearsay[id] = true
	}
	s.untracked = file.Untracked
	s.cfg.Logf("server: recovered %d sender trackers from %s", len(s.senders), path)
}

// sendersFile is the JSON schema of SendersFileName: the CRC-32C of the
// snapshot the trackers were cut with, the untracked flag (the daemon held
// unattributed foreign mass when it saved, so senders without a tracker here
// must keep using the reset protocol), the senders whose watermarks were
// still unconfirmed bootstrap hearsay, and the tracker encodings themselves.
type sendersFile struct {
	SnapCRC   uint32            `json:"snap_crc"`
	Untracked bool              `json:"untracked,omitempty"`
	Hearsay   []string          `json:"hearsay,omitempty"`
	Senders   map[string][]byte `json:"senders,omitempty"`
}
