package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Wire formats of the HTTP API.
//
// Updates travel in one of two bodies, selected by Content-Type:
//
//   - application/json: an UpdateRequest object,
//     {"updates":[{"item":7,"delta":2}, ...]}
//   - application/x-sketch-batch: the length-prefixed binary batch below,
//     which the Client uses and which costs 2 to 16 bytes per update instead
//     of ~25 bytes of JSON plus parsing.
//
// Binary batch layout "SKB2" (integers big-endian):
//
//	magic  [4]byte "SKB2"
//	count  uint32
//	kw     uint8   key width, 1..8: the fewest bytes that hold the largest
//	               key (1 for an empty batch)
//	dw     uint8   delta width: 1, 2 or 4 when every delta is an integer (not
//	               -0) that a signed integer of that many bytes holds, and the
//	               narrowest that does; 8 otherwise
//	keys   count x kw bytes
//	deltas count x dw bytes: two's complement at widths 1, 2 and 4, the
//	               IEEE-754 bits at width 8
//
// Both widths are always the narrowest, so the encoding is canonical: decoding
// and re-encoding reproduces the bytes, and every delta comes back with the
// bits it was sent with. The retired "SKB1" layout (a 16-byte record per
// update) is refused by name.
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
var batchMagic = [4]byte{'S', 'K', 'B', '2'}

// retiredBatchMagic is the 16-bytes-per-record layout SKB2 replaced.
var retiredBatchMagic = [4]byte{'S', 'K', 'B', '1'}

// batchHeaderLen is the fixed prefix: magic, the count word and both widths.
const batchHeaderLen = 10

// bodyBytesPerRecord is the body budget each record a batch declares must
// have: a body or frame capped at B bytes may declare at most B/16 records.
// Sixteen bytes is what one decoded record occupies in the ingest columns, so
// the cap on a body still bounds the columns it decodes into, however
// narrow its records are on the wire.
const bodyBytesPerRecord = 16

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
	// BytesUncoded is what the frames in BytesShipped would have cost with
	// their envelopes' token streams stored as is: BytesShipped over it is
	// the entropy stage's coding ratio on this link.
	BytesUncoded int64  `json:"bytes_uncoded"`
	Pending      bool   `json:"pending"`
	LastError    string `json:"last_error,omitempty"`
	// BackoffMs is the length of the capped exponential backoff window the
	// replicator is currently applying to this peer (0 when the peer is
	// healthy): after a transport failure the next attempt waits one gossip
	// period, then two, doubling up to the cap, so an unreachable peer costs
	// one connection attempt per window instead of one per tick.
	BackoffMs int64 `json:"peer_backoff_ms,omitempty"`
	// LagSeconds is how long the peer has been behind: the seconds since a
	// gossip tick first found LagGens above 0 after the link last caught up,
	// and 0 while LagGens is 0.
	LagSeconds float64 `json:"lag_seconds"`
}

// ResidentSketches counts the distinct full-size counter arrays a daemon
// holds, by owner; Stats.CounterBytes is their memory (width x depth x 4
// bytes each while the counters fit int32, x 8 once widened). Each exists
// only once it holds mass: Replicas are the engine workers that have
// received a batch (1 in partition mode), Foreign is 1 once
// anything has been merged, applied or recovered from outside — 0 while it is
// all one sender's and the foreign sketch is that sender's tracker — Senders
// are the gossip senders a window frame has been applied from, LocalCut is 1
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
	// the daemon holds, the engine's included, and CounterBytes is what
	// they all take: 4 bytes a counter while an array counts in int32 and 8
	// once it has widened to float64 (partition mode's column shards are
	// float64 throughout); WidenedSketches counts the widened arrays among
	// them (docs/CLUSTER.md, "Per-node memory").
	Mode            string           `json:"mode"`
	CounterWords    int              `json:"counter_words"`
	CounterBytes    int              `json:"counter_bytes"`
	WidenedSketches int              `json:"widened_sketches"`
	Resident        ResidentSketches `json:"resident_sketches"`
	Updates         int64            `json:"updates"`
	Batches         int64            `json:"batches"`
	Merges          int64            `json:"merges"`
	Snapshots       int64            `json:"snapshots"`
	TotalMass       float64          `json:"total_mass"`

	// Delta-replication counters: frames this daemon has applied, absorbed
	// idempotently (retries of already-applied frames) and rejected at
	// /v1/delta, the per-sender generation watermarks, and the shipping
	// status of every configured peer.
	DeltasApplied   int64 `json:"deltas_applied"`
	DeltasDuplicate int64 `json:"deltas_duplicate"`
	DeltasRejected  int64 `json:"deltas_rejected"`
	DeltasReplaced  int64 `json:"deltas_replaced,omitempty"`
	// SenderTable is how many sender ids hold a watermark, a tracker or a
	// hearsay mark; a /v1/delta frame from a new id is refused (507,
	// detail "sender_table_full") once it reaches 256.
	SenderTable int               `json:"sender_table"`
	Watermarks  map[string]uint64 `json:"watermarks,omitempty"`
	Peers       []PeerStat        `json:"peers,omitempty"`

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

// AppendBatchColumns appends the SKB2 encoding of parallel key/delta columns
// to buf and returns the extended slice. The columns must have equal length
// (panics otherwise — silently dropping surplus deltas would put a
// valid-looking but lossy batch on the wire). Deltas are not checked here: a
// NaN or ±Inf travels at width 8 and the decoder refuses it.
func AppendBatchColumns(buf []byte, items []uint64, deltas []float64) []byte {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("server: AppendBatchColumns length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	n, kw, dw := len(items), keyWidth(items), deltaWidth(deltas)
	start := len(buf)
	buf = slices.Grow(buf, batchHeaderLen+n*(kw+dw))
	buf = append(buf, batchMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, byte(kw), byte(dw))
	buf = buf[:start+batchHeaderLen+n*(kw+dw)]
	// Each key is stored as a whole big-endian word shifted to its top kw
	// bytes; the next key, or the delta column, overwrites the surplus. The
	// last keys, with fewer than 8 bytes after them, go byte by byte.
	b, shift := buf[start+batchHeaderLen:], 64-8*kw
	for _, k := range items {
		if len(b) < 8 {
			for j := kw - 1; j >= 0; j, k = j-1, k>>8 {
				b[j] = byte(k)
			}
		} else {
			binary.BigEndian.PutUint64(b, k<<shift)
		}
		b = b[kw:]
	}
	switch dw {
	case 1:
		for i, d := range deltas {
			b[i] = byte(int8(d))
		}
	case 2:
		for _, d := range deltas {
			binary.BigEndian.PutUint16(b, uint16(int16(d)))
			b = b[2:]
		}
	case 4:
		for _, d := range deltas {
			binary.BigEndian.PutUint32(b, uint32(int32(d)))
			b = b[4:]
		}
	default:
		for _, d := range deltas {
			binary.BigEndian.PutUint64(b, math.Float64bits(d))
			b = b[8:]
		}
	}
	return buf
}

// keyWidth is the fewest bytes that hold every key, at least 1.
func keyWidth(items []uint64) int {
	var all uint64
	for _, k := range items {
		all |= k
	}
	return max(1, (bits.Len64(all)+7)/8)
}

// deltaWidth is the narrowest SKB2 delta width that carries every delta bit
// for bit: 1, 2 or 4 when all are integers an int32 holds and none is -0, 8
// otherwise (a fraction, -0, NaN, ±Inf or a magnitude past the int32 range).
func deltaWidth(deltas []float64) int {
	if len(deltas) == 0 {
		return 1
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, d := range deltas {
		// Out of the int64 range the conversion's result is the platform's,
		// but it never round-trips to d unless d is ±2^63, which the range
		// check below turns away.
		v := int64(d)
		if float64(v) != d {
			return 8
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	switch {
	case lo < math.MinInt32 || hi > math.MaxInt32:
		return 8
	case lo <= 0 && hi >= 0 && slices.ContainsFunc(deltas, isNegZero):
		// -0 round-trips through int64 as 0, so only a batch whose
		// integers reach 0 is searched for one.
		return 8
	case lo >= math.MinInt8 && hi <= math.MaxInt8:
		return 1
	case lo >= math.MinInt16 && hi <= math.MaxInt16:
		return 2
	}
	return 4
}

func isNegZero(d float64) bool { return math.Float64bits(d) == 1<<63 }

// DecodeBatchColumns parses an SKB2 batch straight into key/delta columns,
// appending to the caller's (typically reused) buffers and returning the
// extended slices — the path the server's ingest lanes use, one pass per
// column with no per-item structs. Everything about the header is checked
// before either column grows: the widths (in range, and the narrowest the
// columns allow — an early-exit scan), and the count against the body length,
// so a corrupt header cannot demand unbounded memory and no accepted batch
// has a second encoding.
//
// A NaN or ±Inf delta is refused here (errNonFiniteDelta), at the boundary
// POST /v1/update bodies and SKS1 data frames share: added to a counter it
// never washes out, and gossip would replicate it to every peer. On any
// error the columns come back exactly as they were passed in.
func DecodeBatchColumns(data []byte, items []uint64, deltas []float64) ([]uint64, []float64, error) {
	if len(data) >= 4 && [4]byte(data[:4]) == retiredBatchMagic {
		return items, deltas, errRetiredBatch
	}
	if len(data) < batchHeaderLen {
		return items, deltas, fmt.Errorf("server: truncated batch (need %d header bytes, have %d)", batchHeaderLen, len(data))
	}
	if [4]byte(data[:4]) != batchMagic {
		return items, deltas, fmt.Errorf("server: bad batch magic %q", data[:4])
	}
	n := binary.BigEndian.Uint32(data[4:8])
	kw, dw := int(data[8]), int(data[9])
	if kw < 1 || kw > 8 {
		return items, deltas, fmt.Errorf("server: batch key width %d (want 1..8)", kw)
	}
	if dw != 1 && dw != 2 && dw != 4 && dw != 8 {
		return items, deltas, fmt.Errorf("server: batch delta width %d (want 1, 2, 4 or 8)", dw)
	}
	body := data[batchHeaderLen:]
	if uint64(len(body)) != uint64(n)*uint64(kw+dw) {
		return items, deltas, fmt.Errorf("server: batch payload is %d bytes, header claims %d records of %d+%d bytes",
			len(body), n, kw, dw)
	}
	keys, col := body[:int(n)*kw], body[int(n)*kw:]
	if !narrowest(keys, col, kw, dw) {
		return items, deltas, fmt.Errorf("server: batch widths %d+%d are wider than its records need", kw, dw)
	}

	ni, nd := len(items), len(deltas)
	items = slices.Grow(items, int(n))[:ni+int(n)]
	deltas = slices.Grow(deltas, int(n))[:nd+int(n)]
	b, shift := body, 64-8*kw
	for i := range items[ni:] {
		var k uint64
		if len(b) < 8 {
			for _, c := range b[:kw] {
				k = k<<8 | uint64(c)
			}
		} else {
			k = binary.BigEndian.Uint64(b) >> shift
		}
		items[ni+i] = k
		b = b[kw:]
	}
	out := deltas[nd:]
	switch dw {
	case 1:
		for i := range out {
			out[i] = float64(int8(b[i]))
		}
	case 2:
		for i := range out {
			out[i] = float64(int16(binary.BigEndian.Uint16(b)))
			b = b[2:]
		}
	case 4:
		for i := range out {
			out[i] = float64(int32(binary.BigEndian.Uint32(b)))
			b = b[4:]
		}
	default:
		for i := range out {
			w := binary.BigEndian.Uint64(b)
			if w&float64ExpMask == float64ExpMask {
				return items[:ni], deltas[:nd], fmt.Errorf("server: batch record %d (item %d): %w", i, items[ni+i], errNonFiniteDelta)
			}
			out[i] = math.Float64frombits(w)
			b = b[8:]
		}
	}
	return items, deltas, nil
}

// narrowest reports whether kw and dw are the narrowest widths for the key
// and delta columns: some key fills its top byte, and some delta does not
// fit the next narrower width. Both scans stop at the first witness, which
// on real batches is one of the first few records.
func narrowest(keys, col []byte, kw, dw int) bool {
	wideKey := kw == 1
	for i := 0; !wideKey && i < len(keys); i += kw {
		wideKey = keys[i] != 0
	}
	wideDelta := dw == 1
	for i := 0; !wideDelta && i < len(col); i += dw {
		switch dw {
		case 2:
			v := int16(binary.BigEndian.Uint16(col[i:]))
			wideDelta = v != int16(int8(v))
		case 4:
			v := int32(binary.BigEndian.Uint32(col[i:]))
			wideDelta = v != int32(int16(v))
		default:
			d := math.Float64frombits(binary.BigEndian.Uint64(col[i:]))
			wideDelta = deltaWidth([]float64{d}) == 8
		}
	}
	return wideKey && wideDelta
}

// checkBatchCount refuses a batch whose header declares more records than a
// body or frame capped at limit bytes may carry (bodyBytesPerRecord); the
// caller answers it as over-size. It runs before the decode, so the columns
// never grow for such a batch. Anything that is not an SKB2 header passes,
// for the decoder to name.
func checkBatchCount(data []byte, limit int64) error {
	if len(data) < batchHeaderLen || [4]byte(data[:4]) != batchMagic {
		return nil
	}
	if n, most := binary.BigEndian.Uint32(data[4:8]), limit/bodyBytesPerRecord; int64(n) > most {
		return fmt.Errorf("server: batch declares %d records, cap is %d (%d bytes / %d per record)", n, most, limit, bodyBytesPerRecord)
	}
	return nil
}

// float64ExpMask selects a float64's exponent field; all ones there means
// NaN or ±Inf.
const float64ExpMask = 0x7ff << 52

// errNonFiniteDelta is what DecodeBatchColumns wraps when a record's delta
// is NaN or ±Inf.
var errNonFiniteDelta = errors.New("delta is not finite")

// errRetiredBatch answers a body in the retired SKB1 layout.
var errRetiredBatch = errors.New("server: the SKB1 batch format is retired: use a producer of the same release (SKB2), or the JSON body")

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
//	                   other bits: refused
//	senderLen  uint16  length of the sender id (must be >= 1)
//	sender     senderLen bytes: the sending node's -node-id
//	fromGen    uint64  sender-local generation of the last acked frame
//	toGen      uint64  sender-local generation this frame advances to
//	payloadLen uint32
//	payload    payloadLen bytes: a sketch KindDelta envelope (kind 9) of
//	           the difference sketch's encoding — zero-run, literal and
//	           integer-word tokens under a per-envelope Huffman code — and
//	           empty on reset frames; the retired kind-7 and kind-8
//	           envelopes are refused with 400
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
// invariants (exact length, known flag bits, named sender, monotone
// generation window, reset frames empty and non-reset frames non-empty) so the handler can trust the
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
	if unknown := data[5] &^ (deltaFlagReset | deltaFlagReplace); unknown != 0 {
		return f, fmt.Errorf("server: unknown delta frame flag bits %#x", unknown)
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
