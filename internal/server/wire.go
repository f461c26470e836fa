package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
)

// Wire formats of the HTTP API.
//
// Updates travel in one of two bodies, selected by Content-Type:
//
//   - application/json: an UpdateRequest object,
//     {"updates":[{"item":7,"delta":2}, ...]}
//   - application/x-sketch-batch: the length-prefixed binary batch below,
//     which the Client uses and which costs 16 bytes per update instead of
//     ~25 bytes of JSON plus parsing.
//
// Binary batch layout (integers big-endian, floats as IEEE-754 bits):
//
//	magic [4]byte "SKB1"
//	count uint32
//	count x (item uint64, delta float64)
//
// Snapshots travel as application/x-sketch-snapshot: the raw versioned
// encoding produced by the sketch types' MarshalBinary (see
// internal/sketch/encoding.go), untouched by the transport.

// Content types of the HTTP API.
const (
	contentTypeJSON      = "application/json"
	contentTypeBatch     = "application/x-sketch-batch"
	contentTypeSnapshot  = "application/x-sketch-snapshot"
	contentTypeDelta     = "application/x-sketch-delta"
	contentTypeStream    = "application/x-sketch-stream"
	contentTypeBootstrap = "application/x-sketch-bootstrap"
)

// batchMagic guards the binary update-batch format.
var batchMagic = [4]byte{'S', 'K', 'B', '1'}

// batchHeaderLen is the fixed prefix: magic plus the count word.
const batchHeaderLen = 8

// batchRecordLen is the size of one (item, delta) record.
const batchRecordLen = 16

// UpdateRequest is the JSON body of POST /v1/update.
type UpdateRequest struct {
	Updates []UpdateJSON `json:"updates"`
}

// UpdateJSON is one (item, delta) record in JSON form.
type UpdateJSON struct {
	Item  uint64  `json:"item"`
	Delta float64 `json:"delta"`
}

// UpdateResponse acknowledges an accepted batch.
type UpdateResponse struct {
	Accepted int `json:"accepted"`
}

// Estimate is one point-query answer.
type Estimate struct {
	Item     uint64  `json:"item"`
	Estimate float64 `json:"estimate"`
}

// QueryResponse is the JSON body of GET /v1/query.
type QueryResponse struct {
	Estimates []Estimate `json:"estimates"`
	// Gen is the write generation of the barrier snapshot that answered the
	// read; every read response carries it, so callers can correlate answers
	// across endpoints.
	Gen int64 `json:"gen"`
}

// TopKItem is one ranked heavy-hitter candidate.
type TopKItem struct {
	Item  uint64 `json:"item"`
	Count int64  `json:"count"`
}

// TopKResponse is the JSON body of GET /v1/topk.
type TopKResponse struct {
	Items []TopKItem `json:"items"`
	Gen   int64      `json:"gen"`
}

// MergeResponse acknowledges a folded-in snapshot.
type MergeResponse struct {
	TotalMass float64 `json:"total_mass"`
}

// DeltaResponse acknowledges a delta frame. Applied is false for retries of
// already-applied frames (the idempotent path) and for reset frames;
// Watermark is the receiver's per-sender generation watermark after the
// frame was handled, i.e. the ToGen of the newest applied frame. CanReplace
// advertises that the receiver tracks the sender's cumulative shipped mass
// and can therefore accept a lossless replace frame (see DeltaFrame) the
// next time the generation windows diverge.
type DeltaResponse struct {
	Applied    bool   `json:"applied"`
	Watermark  uint64 `json:"watermark"`
	CanReplace bool   `json:"can_replace,omitempty"`
}

// PeerStat is the replication status of one configured gossip peer, as
// reported by GET /v1/stats: which local write generation the peer has
// acknowledged, how far it lags the current one, and the shipping counters.
type PeerStat struct {
	URL          string `json:"url"`
	AckedGen     int64  `json:"acked_gen"`
	LagGens      int64  `json:"lag_gens"`
	FramesAcked  int64  `json:"frames_acked"`
	BytesShipped int64  `json:"bytes_shipped"`
	Pending      bool   `json:"pending"`
	LastError    string `json:"last_error,omitempty"`
	// BackoffMs is the length of the capped exponential backoff window the
	// replicator is currently applying to this peer (0 when the peer is
	// healthy): after a transport failure the next attempt waits one gossip
	// period, then two, doubling up to the cap, so an unreachable peer costs
	// one connection attempt per window instead of one per tick.
	BackoffMs int64 `json:"peer_backoff_ms,omitempty"`
}

// ResidentSketches counts the distinct full-size counter arrays a daemon
// holds, by owner; multiply the sum by width x depth x 8 bytes for its sketch
// memory. Each exists only once it holds mass: Replicas are the engine
// workers that have received a batch (1 in partition mode), Foreign is 1 once
// anything has been merged, applied or recovered from outside, Senders are
// the gossip senders a window frame has been applied from, LocalCut is 1
// while the engine pins a cut of its local mass (from the first read, gossip
// tick or bootstrap request that needed one), Baselines are the cuts of older
// generations still retained for peers that acked or are owed a retry, and
// Epoch is 1 only while the served state is an array of its own — 0 when it
// is the foreign sketch, the pinned cut or a retained baseline, as it is on
// every node that holds only one kind of mass.
type ResidentSketches struct {
	Replicas  int `json:"replicas"`
	Foreign   int `json:"foreign"`
	Senders   int `json:"senders"`
	Epoch     int `json:"epoch"`
	LocalCut  int `json:"local_cut"`
	Baselines int `json:"baselines"`
}

// Stats is the JSON body of GET /v1/stats.
type Stats struct {
	Gen       int64 `json:"gen"`
	Width     int   `json:"width"`
	Depth     int   `json:"depth"`
	K         int   `json:"k"`
	Workers   int   `json:"workers"`
	Producers int   `json:"producers"`
	// Mode is the engine sharding mode: "replica" (each worker that has
	// received a batch holds a full sketch clone) or "partition" (workers
	// share one column-partitioned copy); CounterWords is the engine's
	// resident counters under that choice, summed across shards — in replica
	// mode width x depth per worker that holds mass, 0 on a daemon that has
	// ingested nothing. Resident counts every width x depth counter array
	// the daemon holds, the engine's included.
	Mode         string           `json:"mode"`
	CounterWords int              `json:"counter_words"`
	Resident     ResidentSketches `json:"resident_sketches"`
	Updates      int64            `json:"updates"`
	Batches      int64            `json:"batches"`
	Merges       int64            `json:"merges"`
	Snapshots    int64            `json:"snapshots"`
	TotalMass    float64          `json:"total_mass"`

	// Delta-replication counters: frames this daemon has applied, absorbed
	// idempotently (retries of already-applied frames) and rejected at
	// /v1/delta, the per-sender generation watermarks, and the shipping
	// status of every configured peer.
	DeltasApplied   int64             `json:"deltas_applied"`
	DeltasDuplicate int64             `json:"deltas_duplicate"`
	DeltasRejected  int64             `json:"deltas_rejected"`
	DeltasReplaced  int64             `json:"deltas_replaced,omitempty"`
	Watermarks      map[string]uint64 `json:"watermarks,omitempty"`
	Peers           []PeerStat        `json:"peers,omitempty"`

	// Peer-bootstrap status: empty when the daemon started from local state,
	// otherwise "pending" (state transfer in progress, reads and writes answer
	// 503), "done" (transfer absorbed from BootstrapSource) or "degraded"
	// (every configured source failed BootstrapAttempts rounds; the daemon
	// serves empty state rather than staying down). BootstrapFailures counts
	// failed fetch attempts across sources and rounds.
	Bootstrap         string `json:"bootstrap,omitempty"`
	BootstrapSource   string `json:"bootstrap_source,omitempty"`
	BootstrapFailures int64  `json:"bootstrap_failures,omitempty"`

	// Streaming-ingest counters: connections currently attached (raw TCP and
	// chunked HTTP), named stream sessions known (each holds an exactly-once
	// resume watermark), and data frames applied over streams since start.
	StreamsActive  int64 `json:"streams_active"`
	StreamSessions int   `json:"stream_sessions"`
	StreamFrames   int64 `json:"stream_frames"`

	// Read-path counters: reads answered lock-free from the pinned snapshot
	// epoch vs. reads that had to rebuild it, batch /v1/query requests
	// served, and the mean keys per batch (0 when no batch query ran yet).
	EpochHits     int64   `json:"epoch_hits"`
	EpochMisses   int64   `json:"epoch_misses"`
	BatchQueries  int64   `json:"batch_queries"`
	MeanBatchKeys float64 `json:"mean_batch_keys"`
}

// ErrorDetail is the unified error payload carried by every non-2xx answer
// on every /v1/* route: a stable machine-readable code (derived from the
// HTTP status), a human-readable message, and an optional detail string with
// remediation hints (e.g. the list of enabled recovery algorithms).
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer:
// {"error": {"code": ..., "message": ..., "detail": ...}}.
type errorResponse struct {
	Error ErrorDetail `json:"error"`
}

// Sparse recovery wire types --------------------------------------------------

// RecoverRequest is the optional JSON body of POST /v1/recover; every field
// can also be supplied as a query parameter (?algo=&k=&universe=&iters=),
// and query parameters win over body fields.
type RecoverRequest struct {
	// Algo selects the recoverer: sketch, omp, iht, ista or smp.
	Algo string `json:"algo,omitempty"`
	// K is the output sparsity (how many coordinates to recover).
	K int `json:"k,omitempty"`
	// Universe is the signal dimension n the measurement is inverted over;
	// recovered items are coordinates in [0, Universe).
	Universe int `json:"universe,omitempty"`
	// Iters overrides the iteration budget of the iterative recoverers.
	Iters int `json:"iters,omitempty"`
}

// RecoverEntry is one recovered coordinate with its Count-Min error bound:
// with probability at least Confidence (see RecoverResponse), the true count
// lies in [Estimate - ErrorBound, Estimate] for unsigned sketches.
type RecoverEntry struct {
	Item     uint64  `json:"item"`
	Estimate float64 `json:"estimate"`
}

// RecoverResponse is the JSON body of GET/POST /v1/recover: the approximate
// top-k vector recovered from the live counters, sorted by decreasing
// magnitude.
type RecoverResponse struct {
	Algo     string         `json:"algo"`
	K        int            `json:"k"`
	Universe int            `json:"universe"`
	Entries  []RecoverEntry `json:"entries"`
	// ErrorBound is the classic Count-Min per-coordinate additive error
	// (e/width)·‖x‖₁: each estimate overestimates its true count by at most
	// this much with probability at least Confidence.
	ErrorBound float64 `json:"error_bound"`
	// Confidence is 1 - exp(-depth), the per-coordinate probability that
	// ErrorBound holds.
	Confidence float64 `json:"confidence"`
	Gen        int64   `json:"gen"`
}

// SetQueryRequest is the JSON body of POST /v1/setquery: a candidate support
// S and the estimator to calibrate over it (?estimator= also accepted).
type SetQueryRequest struct {
	// Support is the candidate item set S (no duplicates).
	Support []uint64 `json:"support"`
	// Estimator selects the calibration: "isolate" (default) answers each
	// item from the hash rows where no other member of S collides with it,
	// "min" is the plain per-item Count-Min estimate.
	Estimator string `json:"estimator,omitempty"`
}

// SetQueryEstimate is one calibrated estimate over the requested support.
type SetQueryEstimate struct {
	Item     uint64  `json:"item"`
	Estimate float64 `json:"estimate"`
	// IsolatedRows is the number of hash rows in which no other support
	// member shares this item's bucket — the rows the isolate estimator
	// answered from. Zero means the estimate fell back to the plain minimum.
	IsolatedRows int `json:"isolated_rows"`
}

// SetQueryResponse is the JSON body of POST /v1/setquery, in support order.
type SetQueryResponse struct {
	Estimator  string             `json:"estimator"`
	Estimates  []SetQueryEstimate `json:"estimates"`
	ErrorBound float64            `json:"error_bound"`
	Confidence float64            `json:"confidence"`
	Gen        int64              `json:"gen"`
}

// SpectrumRequest is the JSON body of POST /v1/spectrum: a sampled signal
// whose sparse Fourier support the server extracts with internal/sfft.
type SpectrumRequest struct {
	// Signal is the real part of the samples; its length must be a power of
	// two.
	Signal []float64 `json:"signal"`
	// SignalImag optionally carries the imaginary parts (same length).
	SignalImag []float64 `json:"signal_imag,omitempty"`
	// K is the number of dominant frequencies to recover.
	K int `json:"k"`
	// Algo selects the transform: "exact" (noiseless peeling, default) or
	// "robust" (noise-tolerant phase-ladder location). ?algo= also accepted.
	Algo string `json:"algo,omitempty"`
	// Seed drives the random permutations; 0 means the server's seed.
	Seed uint64 `json:"seed,omitempty"`
	// Rounds and BucketFactor tune the transform (see sfft.Config); zero
	// keeps the library defaults.
	Rounds       int `json:"rounds,omitempty"`
	BucketFactor int `json:"bucket_factor,omitempty"`
}

// SpectrumCoefficient is one recovered frequency.
type SpectrumCoefficient struct {
	Freq      int     `json:"freq"`
	Re        float64 `json:"re"`
	Im        float64 `json:"im"`
	Magnitude float64 `json:"magnitude"`
}

// SpectrumResponse is the JSON body of POST /v1/spectrum, sorted by
// decreasing magnitude.
type SpectrumResponse struct {
	N            int                   `json:"n"`
	K            int                   `json:"k"`
	Algo         string                `json:"algo"`
	Coefficients []SpectrumCoefficient `json:"coefficients"`
	Gen          int64                 `json:"gen"`
}

// AppendBatch appends the binary encoding of updates to buf and returns the
// extended slice.
func AppendBatch(buf []byte, updates []engine.Update) []byte {
	buf = append(buf, batchMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(updates)))
	for _, u := range updates {
		buf = binary.BigEndian.AppendUint64(buf, u.Item)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(u.Delta))
	}
	return buf
}

// AppendBatchColumns appends the binary encoding of parallel key/delta
// columns to buf and returns the extended slice. It produces exactly the
// bytes AppendBatch would for the equivalent record slice — the wire format
// is unchanged; only the in-memory shape differs. The columns must have
// equal length (panics otherwise — silently dropping surplus deltas would
// put a valid-looking but lossy batch on the wire).
func AppendBatchColumns(buf []byte, items []uint64, deltas []float64) []byte {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("server: AppendBatchColumns length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	buf = append(buf, batchMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(items)))
	for i, item := range items {
		buf = binary.BigEndian.AppendUint64(buf, item)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(deltas[i]))
	}
	return buf
}

// DecodeBatchColumns parses a binary update batch straight into key/delta
// columns, appending to the caller's (typically reused) buffers and
// returning the extended slices — the zero-copy-shape path the server's
// ingest lanes use, one bounds-checked scan with no per-item structs. The
// count word is validated against the actual body length before any
// allocation, so a corrupt header cannot demand unbounded memory.
//
// A NaN or ±Inf delta is refused here (errNonFiniteDelta), at the boundary
// POST /v1/update bodies and SKS1 data frames share: added to a counter it
// never washes out, and gossip would replicate it to every peer. On any
// error the columns come back exactly as they were passed in.
func DecodeBatchColumns(data []byte, items []uint64, deltas []float64) ([]uint64, []float64, error) {
	if len(data) < batchHeaderLen {
		return items, deltas, fmt.Errorf("server: truncated batch (need %d header bytes, have %d)", batchHeaderLen, len(data))
	}
	if [4]byte(data[:4]) != batchMagic {
		return items, deltas, fmt.Errorf("server: bad batch magic %q", data[:4])
	}
	n := binary.BigEndian.Uint32(data[4:8])
	payload := data[batchHeaderLen:]
	if uint64(len(payload)) != uint64(n)*batchRecordLen {
		return items, deltas, fmt.Errorf("server: batch payload is %d bytes, header claims %d records (%d bytes)",
			len(payload), n, uint64(n)*batchRecordLen)
	}
	ni, nd := len(items), len(deltas)
	for i := 0; i < int(n); i++ {
		rec := payload[i*batchRecordLen : i*batchRecordLen+batchRecordLen]
		bits := binary.BigEndian.Uint64(rec[8:16])
		if bits&float64ExpMask == float64ExpMask {
			return items[:ni], deltas[:nd], fmt.Errorf("server: batch record %d (item %d): %w",
				i, binary.BigEndian.Uint64(rec[:8]), errNonFiniteDelta)
		}
		items = append(items, binary.BigEndian.Uint64(rec[:8]))
		deltas = append(deltas, math.Float64frombits(bits))
	}
	return items, deltas, nil
}

// float64ExpMask selects a float64's exponent field; all ones there means
// NaN or ±Inf.
const float64ExpMask = 0x7ff << 52

// errNonFiniteDelta is what DecodeBatchColumns wraps when a record's delta
// is NaN or ±Inf.
var errNonFiniteDelta = errors.New("delta is not finite")

// Delta replication frames ---------------------------------------------------
//
// Gossiping daemons ship snapshot differences in framed envelopes posted to
// POST /v1/delta as application/x-sketch-delta:
//
//	magic      [4]byte "SKD1"
//	version    uint8   deltaFrameVersion
//	flags      uint8   bit 0: reset frame (re-align the watermark, no payload)
//	                   bit 1: replace frame (payload is the sender's whole
//	                   local state; see deltaFlagReplace)
//	senderLen  uint16  length of the sender id (must be >= 1)
//	sender     senderLen bytes: the sending node's -node-id
//	fromGen    uint64  sender-local generation of the last acked frame
//	toGen      uint64  sender-local generation this frame advances to
//	payloadLen uint32
//	payload    payloadLen bytes: a sketch KindDelta envelope (kind 8) of
//	           the difference sketch's encoding — zero-run, literal and
//	           integer-word tokens — and empty on reset frames; the retired
//	           kind-7 envelope is refused with 400
//
// A frame covers the sender-local generation window (fromGen, toGen]. The
// receiver keeps one watermark per sender — the toGen of the newest frame it
// has applied — and that watermark is the whole idempotency story:
//
//   - toGen <= watermark: a retry of an already-applied frame; acknowledged
//     without touching a counter, so redelivery never double-counts.
//   - fromGen == watermark: the next frame in sequence; applied, watermark
//     advances to toGen.
//   - anything else: the two sides disagree about history (one of them
//     restarted) — rejected with 409 so the sender can re-align instead of
//     silently double-counting: with a lossless replace frame when the
//     receiver advertised CanReplace, with a reset frame otherwise.

// deltaMagic guards the delta frame format.
var deltaMagic = [4]byte{'S', 'K', 'D', '1'}

// deltaFrameVersion is bumped whenever the frame layout changes.
const deltaFrameVersion = 1

// deltaFlagReset marks a watermark re-alignment frame (empty payload).
const deltaFlagReset = 1

// deltaFlagReplace marks a full-state replacement frame: the payload is the
// sender's entire local sketch (not a window delta). A receiver that tracks
// the sender's cumulative shipped mass (see DeltaResponse.CanReplace)
// subtracts that tracker and absorbs the payload in one barrier — by
// linearity exactly the mass the diverged watermark window would have
// carried — then adopts ToGen as the new watermark. FromGen must be zero.
// Replace frames are only sent to receivers that advertised the capability,
// so an older daemon never sees the flag.
const deltaFlagReplace = 2

// deltaFrameHeaderLen is the fixed prefix: magic, version, flags, senderLen.
const deltaFrameHeaderLen = 8

// DeltaFrame is one gossip shipment: the sender's identity, the sender-local
// generation window (FromGen, ToGen] the payload covers, and the payload
// itself — a sketch.EncodeDelta envelope of the difference sketch. Reset
// frames (Reset true, empty payload, FromGen == ToGen) re-align the
// receiver's watermark after a restart on either side.
type DeltaFrame struct {
	Sender  string
	FromGen uint64
	ToGen   uint64
	Reset   bool
	Replace bool
	Payload []byte
}

// AppendDeltaFrame appends the binary encoding of a delta frame to buf and
// returns the extended slice.
func AppendDeltaFrame(buf []byte, f DeltaFrame) []byte {
	buf = appendDeltaFrameHeader(buf, f)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	return append(buf, f.Payload...)
}

// appendDeltaFrameHeader appends everything of f's encoding ahead of
// payloadLen, for a caller that appends the payload in place and patches its
// length in afterwards (see Server.encodeFrame).
func appendDeltaFrameHeader(buf []byte, f DeltaFrame) []byte {
	buf = append(buf, deltaMagic[:]...)
	buf = append(buf, deltaFrameVersion)
	var flags byte
	if f.Reset {
		flags |= deltaFlagReset
	}
	if f.Replace {
		flags |= deltaFlagReplace
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Sender)))
	buf = append(buf, f.Sender...)
	buf = binary.BigEndian.AppendUint64(buf, f.FromGen)
	return binary.BigEndian.AppendUint64(buf, f.ToGen)
}

// DecodeDeltaFrame parses a delta frame, validating the structural
// invariants (exact length, named sender, monotone generation window, reset
// frames empty and non-reset frames non-empty) so the handler can trust the
// shape before it looks at the watermark.
func DecodeDeltaFrame(data []byte) (DeltaFrame, error) {
	var f DeltaFrame
	if len(data) < deltaFrameHeaderLen {
		return f, fmt.Errorf("server: truncated delta frame (need %d header bytes, have %d)", deltaFrameHeaderLen, len(data))
	}
	if [4]byte(data[:4]) != deltaMagic {
		return f, fmt.Errorf("server: bad delta frame magic %q", data[:4])
	}
	if v := data[4]; v != deltaFrameVersion {
		return f, fmt.Errorf("server: unsupported delta frame version %d (want %d)", v, deltaFrameVersion)
	}
	f.Reset = data[5]&deltaFlagReset != 0
	f.Replace = data[5]&deltaFlagReplace != 0
	senderLen := int(binary.BigEndian.Uint16(data[6:8]))
	rest := data[deltaFrameHeaderLen:]
	if senderLen < 1 {
		return f, fmt.Errorf("server: delta frame has an empty sender id")
	}
	if len(rest) < senderLen+8+8+4 {
		return f, fmt.Errorf("server: truncated delta frame (need %d more bytes after the header, have %d)", senderLen+20, len(rest))
	}
	f.Sender = string(rest[:senderLen])
	rest = rest[senderLen:]
	f.FromGen = binary.BigEndian.Uint64(rest[:8])
	f.ToGen = binary.BigEndian.Uint64(rest[8:16])
	payloadLen := binary.BigEndian.Uint32(rest[16:20])
	payload := rest[20:]
	if uint64(len(payload)) != uint64(payloadLen) {
		return f, fmt.Errorf("server: delta frame payload is %d bytes, header claims %d", len(payload), payloadLen)
	}
	if f.ToGen < f.FromGen {
		return f, fmt.Errorf("server: delta frame generations run backwards (from %d to %d)", f.FromGen, f.ToGen)
	}
	if f.Reset && f.Replace {
		return f, fmt.Errorf("server: delta frame claims to be both a reset and a replace")
	}
	if f.Reset && payloadLen != 0 {
		return f, fmt.Errorf("server: reset delta frame carries a %d-byte payload (must be empty)", payloadLen)
	}
	if !f.Reset && payloadLen == 0 {
		return f, fmt.Errorf("server: delta frame has no payload")
	}
	if f.Replace && f.FromGen != 0 {
		return f, fmt.Errorf("server: replace delta frame declares fromGen %d (must be 0: the payload is the sender's whole local state)", f.FromGen)
	}
	f.Payload = payload
	return f, nil
}

// DecodeBatch parses a binary update batch into a record slice. Transports
// that can consume columns should prefer DecodeBatchColumns; this wrapper
// remains for callers that want the record shape (tests, tooling).
func DecodeBatch(data []byte) ([]engine.Update, error) {
	items, deltas, err := DecodeBatchColumns(data, nil, nil)
	if err != nil {
		return nil, err
	}
	updates := make([]engine.Update, len(items))
	for i := range updates {
		updates[i] = engine.Update{Item: items[i], Delta: deltas[i]}
	}
	return updates, nil
}
