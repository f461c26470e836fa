package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"slices"
	"time"

	"repro/internal/frame"
	"repro/internal/sketch"
)

// Peer bootstrap and disk recovery -------------------------------------------
//
// A node's whole state is its served sketch, its per-sender gossip watermarks
// and the per-sender received-mass trackers that make later watermark
// divergences healable without loss (see deltaFlagReplace in wire.go). SKP1
// carries exactly that, cut under one barrier hold, so the watermarks never
// claim a delta the snapshot's counters don't contain. It travels two ways:
// GET /v1/bootstrap serves it to a daemon that starts without local state,
// and SaveSnapshot writes it to SnapshotDir/sketchd.snap, which New installs
// on restart. Both are cut by transferLocked and installed by
// installBootstrap; the two uses differ only in transferLocked's argument.
//
// Layout (SKP1; integers big-endian, CRC-32C like SKS1):
//
//	magic    [4]byte "SKP1"
//	version  uint8   bootstrapVersion
//	flags    uint8   bit 0 untracked (Server.untracked); the others are 0
//	idLen    uint16  length of the cutting node's id (1..bootstrapMaxIDLen)
//	id       idLen bytes
//	localGen uint64  the cutting node's local write generation at the cut
//	marksLen uint32  length of the watermark JSON
//	marks    marksLen bytes: JSON object sender -> watermark; a peer
//	         transfer includes the serving node itself mapped to localGen, so
//	         the requester's watermark for the server aligns with the
//	         snapshot exactly
//	nhearsay uint16  the senders whose marks are hearsay (Server.hearsay),
//	         strictly ascending, each (idLen uint16, id) and each in marks
//	snapLen  uint32
//	snap     snapLen bytes: the full snapshot's versioned sketch encoding
//	nsenders uint16  per-sender tracker sections, strictly ascending by id
//	         nsenders x (idLen uint16, id, trLen uint32, tracker bytes); an
//	         empty tracker is a tracked sender that has landed nothing. A peer
//	         transfer's own section carries the serving node's local sketch
//	         (its contribution to the snapshot), so the requester can seed
//	         the received-mass tracker for the server too
//	crc      uint32  CRC-32C over everything before it
//
// The installer absorbs the snapshot as foreign mass (gossip never re-ships
// it) and installs the watermarks, hearsay marks and trackers; a
// bootstrapping node only then opens /v1/update, /v1/stream, /v1/delta and
// its replicator.

// bootstrapMagic guards the bootstrap response format.
var bootstrapMagic = [4]byte{'S', 'K', 'P', '1'}

// bootstrapVersion is bumped whenever the response layout changes. Version 2
// added the untracked flag, the hearsay section and empty tracker sections.
const bootstrapVersion = 2

// bootstrapFlagUntracked is the flags bit carrying BootstrapPayload.Untracked.
const bootstrapFlagUntracked = 1

// bootstrapMaxIDLen caps every node-id section of a bootstrap response, like
// streamHelloMaxLen caps stream session names.
const bootstrapMaxIDLen = 256

// bootstrapMaxMarksLen caps the watermark JSON section: even a very large
// mesh's map of id -> uint64 fits comfortably in 1 MiB.
const bootstrapMaxMarksLen = 1 << 20

// BootstrapPayload is one decoded SKP1 state: a /v1/bootstrap transfer or
// the recovery file.
type BootstrapPayload struct {
	// NodeID is the cutting node's id and LocalGen its local write generation
	// at the barrier cut; together they seed the requester's watermark for
	// the server.
	NodeID   string
	LocalGen uint64
	// Watermarks are the cutting node's per-sender gossip watermarks (a peer
	// transfer includes NodeID -> LocalGen).
	Watermarks map[string]uint64
	// Hearsay lists the senders whose marks no direct frame has confirmed:
	// every mark of a peer transfer, since the requester has confirmed none
	// of them, and the cutting node's own unconfirmed marks in its recovery
	// file. Each is a key of Watermarks.
	Hearsay []string
	// Untracked says the cutting node holds foreign mass that no tracker
	// accounts for, so the installer must refuse replace frames from senders
	// it holds no tracker for.
	Untracked bool
	// Snapshot is the full barrier snapshot's versioned sketch encoding.
	Snapshot []byte
	// Senders maps sender id -> the encoding of the mass the cutting node
	// holds from that sender (a peer transfer maps the serving node's own id
	// to its local sketch); an empty encoding is a sender that has landed
	// nothing. Only senders whose tracker is sound for replace-frame
	// subtraction are included, so an untracked node's payload may carry
	// watermarks without a matching tracker.
	Senders map[string][]byte
}

// AppendBootstrapResponse appends the canonical binary encoding of a
// bootstrap payload to buf and returns the extended slice. The hearsay and
// sender sections are emitted in sorted id order and the watermark JSON uses
// encoding/json's sorted-key object form, so encoding the same payload twice
// yields the same bytes — the fixed point FuzzFrames checks.
//
// A payload the decoder would refuse is refused here instead, so no node
// serves a transfer, or writes a recovery file, that cannot be installed.
func AppendBootstrapResponse(buf []byte, p BootstrapPayload) ([]byte, error) {
	hearsay := slices.Clone(p.Hearsay)
	slices.Sort(hearsay)
	ids := sortedKeys(p.Senders)
	if !bootstrapIDOK(p.NodeID) {
		return nil, fmt.Errorf("server: bootstrap node id must be 1..%d bytes, got %d", bootstrapMaxIDLen, len(p.NodeID))
	}
	if len(hearsay) > math.MaxUint16 || len(ids) > math.MaxUint16 {
		return nil, fmt.Errorf("server: bootstrap payload has %d hearsay marks and %d trackers (cap %d each)", len(hearsay), len(ids), math.MaxUint16)
	}
	for i, id := range hearsay {
		if _, ok := p.Watermarks[id]; !ok || !bootstrapIDOK(id) || i > 0 && id == hearsay[i-1] {
			return nil, fmt.Errorf("server: bootstrap hearsay %q is not 1..%d bytes, is repeated or has no watermark", id, bootstrapMaxIDLen)
		}
	}
	for _, id := range ids {
		if !bootstrapIDOK(id) {
			return nil, fmt.Errorf("server: bootstrap sender id must be 1..%d bytes, got %d", bootstrapMaxIDLen, len(id))
		}
	}
	marks, err := json.Marshal(p.Watermarks)
	if err != nil {
		return nil, fmt.Errorf("server: encoding bootstrap watermarks: %w", err)
	}
	if len(marks) > bootstrapMaxMarksLen {
		return nil, fmt.Errorf("server: bootstrap watermark section is %d bytes (cap %d)", len(marks), bootstrapMaxMarksLen)
	}
	var flags byte
	if p.Untracked {
		flags |= bootstrapFlagUntracked
	}
	start := len(buf)
	buf = append(buf, bootstrapMagic[:]...)
	buf = append(buf, bootstrapVersion, flags)
	buf = frame.AppendSection(buf, 2, p.NodeID)
	buf = binary.BigEndian.AppendUint64(buf, p.LocalGen)
	buf = frame.AppendSection(buf, 4, marks)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(hearsay)))
	for _, id := range hearsay {
		buf = frame.AppendSection(buf, 2, id)
	}
	buf = frame.AppendSection(buf, 4, p.Snapshot)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ids)))
	for _, id := range ids {
		buf = frame.AppendSection(buf, 2, id)
		buf = frame.AppendSection(buf, 4, p.Senders[id])
	}
	return frame.Seal(buf, start), nil
}

// bootstrapIDOK reports whether id fits an SKP1 id section. Every id a node
// holds must: New refuses a longer NodeID and handleDelta a longer sender.
func bootstrapIDOK(id string) bool {
	return len(id) >= 1 && len(id) <= bootstrapMaxIDLen
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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
	const name = "server: bootstrap response"
	r := frame.NewReader(data, name)
	r.Magic(bootstrapMagic, nil)
	if v := r.U8(); v != bootstrapVersion {
		r.Failf("unsupported version %d (want %d; every node of a mesh must run the same release)", v, bootstrapVersion)
	}
	flags := r.U8()
	if flags&^bootstrapFlagUntracked != 0 {
		r.Failf("unsupported flags %#x", flags)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	body, err := frame.Open(data, name)
	if err != nil {
		return nil, err
	}
	p := &BootstrapPayload{
		Untracked:  flags&bootstrapFlagUntracked != 0,
		Watermarks: make(map[string]uint64),
		Senders:    make(map[string][]byte),
	}
	r = frame.NewReader(body, name)
	r.Take(6) // the magic, version and flags, checked above
	p.NodeID = readBootstrapID(&r, "")
	p.LocalGen = r.U64()
	if marks := r.Section(4, bootstrapMaxMarksLen); r.Err() == nil {
		if err := json.Unmarshal(marks, &p.Watermarks); err != nil {
			return nil, fmt.Errorf("%s: watermark JSON: %w", name, err)
		}
	}
	for n, id := r.U16(), ""; n > 0 && r.Err() == nil; n-- {
		id = readBootstrapID(&r, id)
		if _, ok := p.Watermarks[id]; !ok {
			r.Failf("hearsay %q has no watermark", id)
		}
		p.Hearsay = append(p.Hearsay, id)
	}
	p.Snapshot = r.Section(4, maxSection)
	for n, id := r.U16(), ""; n > 0 && r.Err() == nil; n-- {
		id = readBootstrapID(&r, id)
		p.Senders[id] = r.Section(4, maxSection)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return p, nil
}

// readBootstrapID reads one id section; after, when non-empty, is the id
// before it in a section that must be strictly ascending.
func readBootstrapID(r *frame.Reader, after string) string {
	id := string(r.Section(2, bootstrapMaxIDLen))
	if id == "" || after != "" && id <= after {
		r.Failf("id %q is empty or out of order", id)
	}
	return id
}

// transferLocked cuts this node's state as one SKP1 payload: the served
// snapshot, the watermarks, the hearsay marks, the untracked flag and the
// per-sender trackers, all under the caller's one snapMu hold, so they agree
// with each other exactly. A sender that has landed nothing (its tracker is
// proto) gets an empty section, and installs as proto again.
//
// peer says who installs the payload, which decides the two things a state
// transfer and the recovery file differ in. A peer gets this node's own
// section — its local sketch and localGen, which seed the requester's
// tracker and watermark for this node — and every mark as hearsay, since it
// has confirmed none of them. The recovery file is installed by this node,
// which tracks none of its own mass (a restart's default NodeID is a new one
// anyway), and keeps exactly the marks it had not confirmed yet. Callers
// hold s.snapMu.
func (s *Server) transferLocked(peer bool) (p BootstrapPayload, err error) {
	p = BootstrapPayload{
		NodeID:     s.cfg.NodeID,
		LocalGen:   uint64(s.localGen.Load()),
		Watermarks: maps.Clone(s.watermarks),
		Hearsay:    sortedKeys(s.hearsay),
		Untracked:  s.untracked,
		Senders:    make(map[string][]byte, len(s.senders)+1),
	}
	for sender, tr := range s.senders {
		p.Senders[sender] = []byte{}
		if tr != s.proto {
			if p.Senders[sender], err = tr.MarshalBinary(); err != nil {
				return p, err
			}
		}
	}
	var full *sketch.HeavyHitterTracker
	if peer {
		// Both sketch sections come from one localCut result (a second call
		// could sit behind a write the first missed), and localGen was loaded
		// before it, so the cut covers at least the generation it is sent as.
		if full, err = s.localCut(); err == nil {
			p.Senders[s.cfg.NodeID], err = full.MarshalBinary()
		}
		if err == nil && s.foreign != nil {
			full, err = s.plusForeign(full)
		}
		p.Watermarks[s.cfg.NodeID] = p.LocalGen
		p.Hearsay = sortedKeys(p.Watermarks)
	} else {
		var ep *readEpoch
		if ep, err = s.snapshotLocked(); err == nil {
			full = ep.snap
		}
	}
	if err == nil {
		p.Snapshot, err = full.MarshalBinary()
	}
	return p, err
}

// handleBootstrap serves one barrier-consistent state transfer (see
// transferLocked).
func (s *Server) handleBootstrap(w http.ResponseWriter, r *http.Request) {
	requester := r.URL.Query().Get("node")

	s.snapMu.Lock()
	if s.engClosed || s.closed.Load() {
		s.snapMu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	payload, err := s.transferLocked(true)
	s.snapMu.Unlock()

	var body []byte
	if err == nil {
		body, err = AppendBootstrapResponse(nil, payload)
	}
	if err != nil {
		writeSnapshotErr(w, fmt.Errorf("assembling bootstrap response: %w", err))
		return
	}
	s.snapshots.Add(1)
	s.cfg.Logf("server: served %d-byte bootstrap transfer (gen %d, %d senders) to %q",
		len(body), payload.LocalGen, len(payload.Senders), requester)
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
				s.cfg.Logf("server: absorbed bootstrap transfer from %s; serving", src)
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

// installBootstrap installs a decoded SKP1 state — a peer's transfer, or this
// node's recovery file at startup; the two differ only in what they hold (see
// transferLocked). The snapshot becomes foreign mass (gossip never re-ships
// it), and the watermarks, hearsay marks and trackers install verbatim, minus
// this node's own id: a node never receives deltas from itself. An empty
// tracker section installs as proto. A mark without a tracker, like the
// untracked flag, makes the node untracked: that sender's mass inside the
// snapshot cannot be attributed, so it must heal by reset, not replace.
//
// Every section is decoded before the barrier lock, and the engine's decoder
// rejects incompatible seeds and shapes, so a failed install changes nothing.
func (s *Server) installBootstrap(p *BootstrapPayload) error {
	snapSketch, err := s.eng.DecodeReplica(p.Snapshot)
	if err != nil {
		return fmt.Errorf("bootstrap snapshot: %w", err)
	}
	trackers := make(map[string]*sketch.HeavyHitterTracker, len(p.Senders))
	for id, enc := range p.Senders {
		switch {
		case id == s.cfg.NodeID:
		case len(enc) == 0:
			trackers[id] = s.proto
		default:
			if trackers[id], err = s.eng.DecodeReplica(enc); err != nil {
				return fmt.Errorf("bootstrap tracker for %q: %w", id, err)
			}
		}
	}

	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.engClosed || s.closed.Load() {
		return ErrServerClosed
	}
	if n := s.senderTableLocked() + s.newSendersLocked(p); n > maxSenders {
		return fmt.Errorf("bootstrap state would grow the sender table to %d ids (cap %d)", n, maxSenders)
	}
	if err := s.mergeForeign(snapSketch, false); err != nil {
		return fmt.Errorf("absorbing bootstrap snapshot: %w", err)
	}
	for id, tr := range trackers {
		s.senders[id] = tr
	}
	s.adoptSoleTracker()
	s.untracked = s.untracked || p.Untracked
	for id, mark := range p.Watermarks {
		if id == s.cfg.NodeID {
			continue
		}
		s.watermarks[id] = mark
		if _, ok := s.senders[id]; !ok {
			s.untracked = true
		}
	}
	for _, id := range p.Hearsay {
		if id != s.cfg.NodeID {
			s.hearsay[id] = true
		}
	}
	s.gen.Add(1)
	s.cfg.Logf("server: installed the state %q cut: %d snapshot bytes, %d watermarks (%d hearsay), %d trackers",
		p.NodeID, len(p.Snapshot), len(p.Watermarks), len(p.Hearsay), len(trackers))
	return nil
}

// newSendersLocked counts the ids p would add to the sender table: those of
// its watermarks and trackers (every hearsay id has a watermark) that the
// table does not hold, this node's own id aside. Caller holds s.snapMu.
func (s *Server) newSendersLocked(p *BootstrapPayload) int {
	n := 0
	for id := range p.Watermarks {
		if id != s.cfg.NodeID && !s.knownSenderLocked(id) {
			n++
		}
	}
	for id := range p.Senders {
		if _, marked := p.Watermarks[id]; !marked && id != s.cfg.NodeID && !s.knownSenderLocked(id) {
			n++
		}
	}
	return n
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
