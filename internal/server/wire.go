package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/frame"
)

// Wire formats of the HTTP API.
//
// Updates travel in one of two bodies, selected by Content-Type:
//
//   - application/json: an UpdateRequest object,
//     {"updates":[{"item":7,"delta":2}, ...]}
//   - application/x-sketch-batch: the length-prefixed binary batch below,
//     which the Client uses and which costs 1 to 16 bytes per update instead
//     of ~25 bytes of JSON plus parsing.
//
// Binary batch layout "SKB3" (integers big-endian):
//
//	magic   [4]byte "SKB3"
//	count   uint32
//	kb      uint8   key bits, 1..64: the bit length of the largest key (at
//	                least 1)
//	db      uint8   delta bits: when every delta is an integer an int32 holds
//	                and none is -0, 1..32, the fewest two's-complement bits
//	                that hold every delta; 64 otherwise
//	records count x W bytes, W = (kb+db+7)/8: each update's key<<db | its
//	                delta's low db bits, or key<<64 | the delta's IEEE-754
//	                bits at db 64, big-endian in W bytes
//
// Both bit lengths are the least that hold the records, so the encoding is
// canonical: decoding and re-encoding reproduces the bytes, and every delta
// comes back with the bits it was sent with. The decoder refuses any other
// header (a key or delta bit length with no record that needs it, IEEE
// deltas that are all int32 integers, a record bit above kb+db). An SKB3
// batch is never longer than the same updates in SKB2 (kb <= 8·kw, db <=
// 8·dw, and the header is the same 10 bytes). The retired "SKB1" (a 16-byte
// record per update) and "SKB2" (key and delta columns at whole-byte widths)
// layouts are refused by name.
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
var batchMagic = [4]byte{'S', 'K', 'B', '3'}

// retiredBatchMagics are the layouts SKB3 replaced: SKB1's 16-byte records
// and SKB2's key and delta columns at whole-byte widths.
var retiredBatchMagics = [][4]byte{{'S', 'K', 'B', '1'}, {'S', 'K', 'B', '2'}}

// batchHeaderLen is the fixed prefix: magic, count and both bit lengths.
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
// received a batch, Foreign is 1 once anything has been merged, applied or
// recovered from outside — 0 while it is all one sender's and the foreign
// sketch is that sender's tracker — Senders
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
	// CounterWords is the engine's resident counters summed across shards:
	// width x depth per worker that holds mass, 0 on a daemon that has
	// ingested nothing. Resident counts every width x depth counter array
	// the daemon holds, the engine's included, and CounterBytes is what
	// they all take: 4 bytes a counter while an array counts in int32 and 8
	// once it has widened to float64; WidenedSketches counts the widened
	// arrays among them (docs/CLUSTER.md, "Per-node memory").
	CounterWords    int              `json:"counter_words"`
	CounterBytes    int              `json:"counter_bytes"`
	WidenedSketches int              `json:"widened_sketches"`
	Resident        ResidentSketches `json:"resident_sketches"`
	Updates         int64            `json:"updates"`
	// UpdatesApplied counts the records the engine applied: Updates after
	// each integer batch's repeated keys were summed into one record a key.
	UpdatesApplied int64 `json:"updates_applied"`
	Batches        int64 `json:"batches"`
	// IngestBytes counts the binary batch bytes accepted since start: SKB3
	// bodies of POST /v1/update and the batches inside SKS1 data frames (the
	// payload after the seq). JSON bodies are not counted, so IngestBytes
	// over Updates is a binary producer's bytes per update.
	IngestBytes int64   `json:"ingest_bytes"`
	Merges      int64   `json:"merges"`
	Snapshots   int64   `json:"snapshots"`
	TotalMass   float64 `json:"total_mass"`

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

// AppendBatchColumns appends the SKB3 encoding of parallel key/delta columns
// to buf and returns the extended slice. The columns must have equal length
// (panics otherwise — silently dropping surplus deltas would put a
// valid-looking but lossy batch on the wire). Deltas are not checked here: a
// NaN or ±Inf travels as its IEEE bits and the decoder refuses it.
func AppendBatchColumns(buf []byte, items []uint64, deltas []float64) []byte {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("server: AppendBatchColumns length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	h := headerFor(items, deltas)
	start, size := len(buf), batchHeaderLen+h.n*h.width()
	buf = slices.Grow(buf, size)
	buf = append(buf, batchMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.n))
	buf = append(buf, byte(h.kb), byte(h.db))
	buf = buf[:start+size]
	if b := buf[start+batchHeaderLen:]; h.width() > 8 {
		putWideRecords(b, items, deltas, h)
	} else {
		putRecords(b, items, deltas, h)
	}
	return buf
}

// batchHeader is an SKB3 header past its magic: the record count and the key
// and delta bit lengths.
type batchHeader struct{ n, kb, db int }

// width is the bytes of one record: kb+db bits, rounded up.
func (h batchHeader) width() int { return (h.kb + h.db + 7) / 8 }

// headerFor computes the header of the columns' encoding in one pass: kb from
// the OR of the keys, and db from the OR of the deltas' magnitude bits
// (v^(v>>63) drops a negative delta's sign copies) while they are integers.
// At the first delta that is not, the pass finishes the keys alone. Deltas
// travel as IEEE bits unless every one is an intDelta.
func headerFor(items []uint64, deltas []float64) batchHeader {
	var keys, mags uint64
	items = items[:len(deltas)]
	i := 0
	for ; i < len(deltas); i++ {
		keys |= items[i]
		// Out of the int64 range the conversion's result is the platform's,
		// but it never converts back to d unless d is ±2^63, which the bit
		// length below turns away. Comparing bits turns away -0, which comes
		// back as +0.
		d := deltas[i]
		v := int64(d)
		if math.Float64bits(float64(v)) != math.Float64bits(d) {
			break
		}
		mags |= uint64(v ^ v>>63)
	}
	for _, k := range items[i:] {
		keys |= k
	}
	h := batchHeader{n: len(items), kb: max(1, bits.Len64(keys)), db: 1 + bits.Len64(mags)}
	if i < len(deltas) || h.db > 32 {
		h.db = ieeeDeltas
	}
	return h
}

// ieeeDeltas is the delta bit length that marks a batch whose deltas travel
// as their IEEE-754 bits.
const ieeeDeltas = 64

// intDelta reports whether d can travel as a two's-complement field: an
// integer an int32 holds, and not -0 (headerFor's rule, one delta at a time).
// Out of the int32 range the conversion's result is the platform's, but it
// never converts back to d.
func intDelta(d float64) bool {
	return math.Float64bits(float64(int32(d))) == math.Float64bits(d)
}

// putRecords stores records of at most 8 bytes: each is a big-endian word
// shifted to its top w bytes, and the next record overwrites the surplus. The
// last records, with fewer than 8 bytes after them, go byte by byte.
func putRecords(b []byte, items []uint64, deltas []float64, h batchHeader) {
	w := h.width()
	shift, db := uint(64-8*w)&63, uint(h.db)&63
	mask := uint64(1)<<db - 1
	deltas = deltas[:len(items)]
	for i, k := range items {
		r := k<<db | uint64(int64(deltas[i]))&mask
		if len(b) < 8 {
			for j := w - 1; j >= 0; j, r = j-1, r>>8 {
				b[j] = byte(r)
			}
		} else {
			binary.BigEndian.PutUint64(b, r<<shift)
		}
		b = b[w:]
	}
}

// putWideRecords stores records of 9 to 16 bytes as two big-endian words:
// the record's bits above 64 in the first w-8 bytes, then its low 64 bits.
func putWideRecords(b []byte, items []uint64, deltas []float64, h batchHeader) {
	w := h.width()
	hw := w - 8
	shift, db := uint(64-8*hw)&63, uint(h.db)&63
	mask := uint64(1)<<db - 1
	deltas = deltas[:len(items)]
	for i, k := range items {
		hi, lo := k, math.Float64bits(deltas[i])
		if h.db != ieeeDeltas {
			hi, lo = k>>(-db&63), k<<db|uint64(int64(deltas[i]))&mask
		}
		binary.BigEndian.PutUint64(b[i*w:], hi<<shift)
		binary.BigEndian.PutUint64(b[i*w+hw:], lo)
	}
}

// DecodeBatchColumns parses an SKB3 batch straight into key/delta columns,
// appending to the caller's (typically reused) buffers and returning the
// extended slices — the path the server's ingest lanes use, one pass over the
// records with no per-item structs. The header is checked before either
// column grows: the bit lengths in range, and the count against the body
// length, so a corrupt header cannot demand unbounded memory. The pass
// collects what the rest of the canonical form needs (the OR of the keys and
// of the deltas' magnitude bits), so no accepted batch has a second encoding.
//
// A NaN or ±Inf delta is refused here (errNonFiniteDelta), at the boundary
// POST /v1/update bodies and SKS1 data frames share: added to a counter it
// never washes out, and gossip would replicate it to every peer. On any
// error the columns come back exactly as they were passed in.
func DecodeBatchColumns(data []byte, items []uint64, deltas []float64) ([]uint64, []float64, error) {
	h, err := parseBatchHeader(data)
	if err != nil {
		return items, deltas, err
	}
	ni, nd := len(items), len(deltas)
	items = slices.Grow(items, h.n)[:ni+h.n]
	deltas = slices.Grow(deltas, h.n)[:nd+h.n]
	var seen witness
	if body := data[batchHeaderLen:]; h.width() > 8 {
		seen, err = getWideRecords(body, items[ni:], deltas[nd:], h)
	} else {
		seen = getRecords(body, items[ni:], deltas[nd:], h)
	}
	if err == nil {
		err = h.canonical(seen, deltas[nd:])
	}
	if err != nil {
		return items[:ni], deltas[:nd], err
	}
	return items, deltas, nil
}

// parseBatchHeader checks everything about an SKB3 batch that its header
// alone decides: the magic, the bit lengths in range, and a body of exactly
// count records.
func parseBatchHeader(data []byte) (batchHeader, error) {
	r := frame.NewReader(data, "server: batch")
	r.Magic(batchMagic, errRetiredBatch, retiredBatchMagics...)
	n := r.U32()
	h := batchHeader{n: int(n), kb: int(r.U8()), db: int(r.U8())}
	switch {
	case h.kb < 1 || h.kb > 64:
		r.Failf("key bits %d (want 1..64)", h.kb)
	case (h.db < 1 || h.db > 32) && h.db != ieeeDeltas: // 32 bits hold an int32
		r.Failf("delta bits %d (want 1..32 or %d)", h.db, ieeeDeltas)
	default:
		r.Records(uint64(n), h.width())
	}
	return h, r.Err()
}

// witness is what a decode pass collects for the canonical checks: the OR of
// the keys and of the deltas' magnitude bits, and any record bits above a
// 64-bit key's.
type witness struct{ keys, mags, over uint64 }

// getRecords decodes records of at most 8 bytes into keys and out (both of
// length h.n): one 8-byte load each while 8 bytes remain, byte by byte after.
// The low db bits of a record are the delta, sign-extended.
func getRecords(body []byte, keys []uint64, out []float64, h batchHeader) witness {
	w := h.width()
	shift, db, ext := uint(64-8*w)&63, uint(h.db)&63, uint(64-h.db)&63
	out = out[:len(keys)]
	var seen witness
	for i := range keys {
		var r uint64
		if len(body) < 8 {
			for _, c := range body[:w] {
				r = r<<8 | uint64(c)
			}
		} else {
			r = binary.BigEndian.Uint64(body) >> shift
		}
		k, v := r>>db, int64(r<<ext)>>ext
		keys[i], out[i] = k, float64(v)
		seen.keys, seen.mags = seen.keys|k, seen.mags|uint64(v^v>>63)
		body = body[w:]
	}
	return seen
}

// getWideRecords decodes two-word records (64-bit keys with int32 deltas).
func getWideRecords(body []byte, keys []uint64, out []float64, h batchHeader) (witness, error) {
	if h.db == ieeeDeltas {
		return getIEEERecords(body, keys, out, h)
	}
	w := h.width()
	hw := w - 8
	shift, db, ext := uint(64-8*hw)&63, uint(h.db)&63, uint(64-h.db)&63
	out = out[:len(keys)]
	var seen witness
	for i := range keys {
		hi := binary.BigEndian.Uint64(body[i*w:]) >> shift
		lo := binary.BigEndian.Uint64(body[i*w+hw:])
		k, v := hi<<ext|lo>>db, int64(lo<<ext)>>ext
		keys[i], out[i] = k, float64(v)
		seen.keys, seen.mags = seen.keys|k, seen.mags|uint64(v^v>>63)
		seen.over |= hi >> db
	}
	return seen, nil
}

// getIEEERecords decodes two-word records whose low word is the delta's IEEE
// bits, refusing NaN and ±Inf.
func getIEEERecords(body []byte, keys []uint64, out []float64, h batchHeader) (witness, error) {
	w := h.width()
	hw := w - 8
	shift := uint(64-8*hw) & 63
	out = out[:len(keys)]
	var seen witness
	for i := range keys {
		k := binary.BigEndian.Uint64(body[i*w:]) >> shift
		d := binary.BigEndian.Uint64(body[i*w+hw:])
		if d&frame.Float64ExpMask == frame.Float64ExpMask {
			return seen, fmt.Errorf("server: batch record %d (item %d): %w", i, k, errNonFiniteDelta)
		}
		keys[i], out[i] = k, math.Float64frombits(d)
		seen.keys |= k
	}
	return seen, nil
}

// canonical refuses a decoded batch whose header is not the one headerFor
// gives its columns: kb must be the keys' bit length, db the deltas' signed
// bit length, and IEEE deltas must include one that cannot travel as an
// int32 field.
func (h batchHeader) canonical(seen witness, deltas []float64) error {
	if seen.over != 0 || bits.Len64(seen.keys) > h.kb {
		return fmt.Errorf("server: batch record has a bit set above its %d+%d bits", h.kb, h.db)
	}
	if h.kb > 1 && bits.Len64(seen.keys) < h.kb {
		return fmt.Errorf("server: batch key bits %d, but no key needs more than %d", h.kb, bits.Len64(seen.keys))
	}
	if h.db == ieeeDeltas {
		if !slices.ContainsFunc(deltas, func(d float64) bool { return !intDelta(d) }) {
			return fmt.Errorf("server: batch carries IEEE deltas that are all int32 integers")
		}
	} else if need := 1 + bits.Len64(seen.mags); need < h.db {
		return fmt.Errorf("server: batch delta bits %d, but no delta needs more than %d", h.db, need)
	}
	return nil
}

// checkBatchCount refuses a batch whose header declares more records than a
// body or frame capped at limit bytes may carry (bodyBytesPerRecord); the
// caller answers it as over-size. It runs before the decode, so the columns
// never grow for such a batch. Anything that is not an SKB3 header passes,
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

// errNonFiniteDelta is what DecodeBatchColumns wraps when a record's delta
// is NaN or ±Inf.
var errNonFiniteDelta = errors.New("delta is not finite")

// errRetiredBatch answers a body in a retired batch layout.
var errRetiredBatch = errors.New("a retired batch format: use a producer of the same release (SKB3), or the JSON body")

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
	return frame.AppendSection(appendDeltaFrameHeader(buf, f), 4, f.Payload)
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
	buf = frame.AppendSection(append(buf, flags), 2, f.Sender)
	buf = binary.BigEndian.AppendUint64(buf, f.FromGen)
	return binary.BigEndian.AppendUint64(buf, f.ToGen)
}

// DecodeDeltaFrame parses a delta frame, validating the structural
// invariants (exact length, known flag bits, named sender, monotone
// generation window, reset frames empty and non-reset frames non-empty) so the handler can trust the
// shape before it looks at the watermark.
func DecodeDeltaFrame(data []byte) (DeltaFrame, error) {
	var f DeltaFrame
	r := frame.NewReader(data, "server: delta frame")
	r.Magic(deltaMagic, nil)
	r.Version(deltaFrameVersion)
	flags := r.U8()
	if unknown := flags &^ (deltaFlagReset | deltaFlagReplace); unknown != 0 {
		r.Failf("unknown flag bits %#x", unknown)
	}
	f.Reset, f.Replace = flags&deltaFlagReset != 0, flags&deltaFlagReplace != 0
	f.Sender = string(r.Section(2, len(data)))
	if f.Sender == "" {
		r.Failf("empty sender id")
	}
	f.FromGen, f.ToGen = r.U64(), r.U64()
	f.Payload = r.Section(4, len(data))
	switch {
	case r.Done() != nil:
	case f.ToGen < f.FromGen:
		r.Failf("generations run backwards (from %d to %d)", f.FromGen, f.ToGen)
	case f.Reset && f.Replace:
		r.Failf("claims to be both a reset and a replace")
	case f.Reset && len(f.Payload) != 0:
		r.Failf("reset frame carries a %d-byte payload (must be empty)", len(f.Payload))
	case !f.Reset && len(f.Payload) == 0:
		r.Failf("no payload")
	case f.Replace && f.FromGen != 0:
		r.Failf("replace frame declares fromGen %d (must be 0: the payload is the sender's whole local state)", f.FromGen)
	}
	if err := r.Err(); err != nil {
		return DeltaFrame{}, err
	}
	return f, nil
}
