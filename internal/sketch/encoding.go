package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/frame"
	"repro/internal/hashing"
)

// Binary serialization for the linear sketches. The format exists so that
// shards of a distributed ingestion pipeline can live in different processes
// and merge over the wire: because the hash functions are reconstructed from
// the serialized seed through the same deterministic code path used at
// construction time, Unmarshal(Marshal(s)) is bit-identical in behavior to s
// — same buckets, same signs, same estimates — which is exactly the property
// Merge needs.
//
// Wire layout (all integers big-endian):
//
//	magic   [4]byte  "SKC1"
//	version uint8    encodingVersion
//	kind    uint8    sketch kind (CountMin, CountSketch, Bloom, IBLT)
//	payload          kind-specific header (dimensions, hash seed, family)
//	                 followed by the raw counters
//
// Floats are encoded as IEEE-754 bits so counters round-trip exactly. A
// Count-Min counting in int32 writes each counter as the float64 of its
// value, the word the float64 path holds, so the bytes do not depend on the
// storage.

// encodingMagic guards against feeding arbitrary bytes to Unmarshal.
var encodingMagic = [4]byte{'S', 'K', 'C', '1'}

// encodingVersion is bumped whenever the payload layout changes; decoders
// reject versions they do not understand rather than guessing.
const encodingVersion = 1

// Sketch kinds on the wire.
const (
	kindCountMin    = 1
	kindCountSketch = 2
	kindBloom       = 3
	kindIBLT        = 4
	kindTracker     = 5
	kindDyadic      = 6
	// Kinds 7 and 8 are retired delta envelopes — before integer tokens, and
	// before the entropy stage — refused by name so an older peer's frame
	// fails loudly.
	kindRetiredDelta7 = 7
	kindRetiredDelta8 = 8
	kindDelta         = 9
)

// Kind is the exported view of the wire-format kind byte, so transport
// layers (internal/server) can dispatch on the payload type without decoding
// it.
type Kind uint8

// Exported sketch kinds, matching the wire constants.
const (
	KindCountMin    Kind = kindCountMin
	KindCountSketch Kind = kindCountSketch
	KindBloom       Kind = kindBloom
	KindIBLT        Kind = kindIBLT
	KindTracker     Kind = kindTracker
	KindDyadic      Kind = kindDyadic
	// KindDelta is not a sketch of its own but an envelope: a compressed
	// encoding of another sketch's encoding — zero runs, literals and
	// integer-valued counter words, entropy-coded — used when the wrapped
	// sketch is the *difference* of two snapshots and therefore mostly zero
	// or small integer counters. See EncodeDelta / DecodeDelta.
	KindDelta Kind = kindDelta
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindCountMin:
		return "CountMin"
	case KindCountSketch:
		return "CountSketch"
	case KindBloom:
		return "BloomFilter"
	case KindIBLT:
		return "IBLT"
	case KindTracker:
		return "HeavyHitterTracker"
	case KindDyadic:
		return "Dyadic"
	case KindDelta:
		return "Delta"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// PeekKind validates the fixed header of an encoded sketch (magic and
// version) and returns its kind without decoding the payload. Transports use
// it to route a snapshot to the right decoder and to reject junk early.
func PeekKind(data []byte) (Kind, error) {
	r := frame.NewReader(data, "sketch")
	r.Magic(encodingMagic, nil)
	r.Version(encodingVersion)
	k := Kind(r.U8())
	if err := r.Err(); err != nil {
		return 0, err
	}
	switch k {
	case KindCountMin, KindCountSketch, KindBloom, KindIBLT, KindTracker, KindDyadic, KindDelta:
		return k, nil
	case kindRetiredDelta7, kindRetiredDelta8:
		return 0, fmt.Errorf("sketch: unknown sketch kind %d: a retired delta envelope (this release reads kind %d)", uint8(k), kindDelta)
	default:
		return 0, fmt.Errorf("sketch: unknown sketch kind %d", uint8(k))
	}
}

// writer appends big-endian primitives to a pre-sized buffer.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) header(kind uint8) { w.buf = appendHeader(w.buf, kind) }

// appendHeader appends the fixed header of an encoding of the given kind.
func appendHeader(dst []byte, kind uint8) []byte {
	return append(append(dst, encodingMagic[:]...), encodingVersion, kind)
}

// reader is a frame.Reader over one sketch encoding, with the checks every
// sketch decoder shares.
type reader struct{ frame.Reader }

// newReader returns a reader past the checked header of an encoding of the
// given kind; name ("sketch: CountMin") begins every error.
func newReader(data []byte, kind uint8, name string) reader {
	r := reader{frame.NewReader(data, name)}
	r.Magic(encodingMagic, nil)
	r.Version(encodingVersion)
	if k := r.U8(); k != kind {
		r.Failf("wrong sketch kind %d (want %d)", k, kind)
	}
	return r
}

// checkDims bounds width/depth-style dimensions read off the wire.
func (r *reader) checkDims(dims ...uint32) {
	const maxDim = 1 << 30
	for _, d := range dims {
		if d < 1 || d > maxDim {
			r.Failf("dimension %d out of range [1, %d]", d, maxDim)
			return
		}
	}
}

// checkFamily verifies a family byte read off the wire names a known hash
// family (hashing.NewHasher panics on unknown families, so decoders must
// reject bad bytes with an error first).
func (r *reader) checkFamily(f hashing.Family) {
	switch f {
	case hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation:
	default:
		r.Failf("unknown hash family %d", int(f))
	}
}

// counters decodes buf, the payload Records proved to be exactly len(dst)
// words, into dst in one sweep; the caller has checked Err. A NaN or ±Inf
// counter fails the decode: one poisoned counter would otherwise survive
// every later merge and replicate to every peer.
func (r *reader) counters(buf []byte, dst []float64) {
	for i := range dst {
		w := binary.BigEndian.Uint64(buf[8*i:])
		if w&frame.Float64ExpMask == frame.Float64ExpMask {
			r.Failf("counter %d is not finite", i)
			return
		}
		dst[i] = math.Float64frombits(w)
	}
}

// countMinCounters is counters for a fresh Count-Min, which picks its storage
// as it goes: it stays narrow while every word is an integer in int32 range
// and not -0 (narrowWord), and widens at the first word that is not, so the
// decoded sketch re-encodes to the same bytes.
func (r *reader) countMinCounters(buf []byte, cm *CountMin) {
	n := cm.stored()
	i := 0
	if c := cm.counts32; c != nil {
		for ; i < n; i++ {
			k, ok := narrowWord(binary.BigEndian.Uint64(buf[8*i:]))
			if !ok {
				cm.widen()
				break
			}
			c[i] = k
		}
	}
	for ; i < n; i++ {
		w := binary.BigEndian.Uint64(buf[8*i:])
		if w&frame.Float64ExpMask == frame.Float64ExpMask {
			r.Failf("counter %d is not finite", i)
			return
		}
		cm.counts[i] = math.Float64frombits(w)
	}
}

// CountMin ------------------------------------------------------------------

// MarshalBinary encodes the sketch: a versioned header carrying the family,
// conservative flag, width, depth and hash seed, followed by the total mass
// and the d x w counter matrix.
func (cm *CountMin) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, countMinHeaderLen+8*cm.width*cm.depth)
	w := writer{buf: cm.appendEncodingHeader(buf, cm.totalMass)}
	if cm.stored() == 0 {
		// A Prototype encodes as the empty sketch it stands for.
		return append(w.buf, make([]byte, 8*cm.width*cm.depth)...), nil
	}
	// The flat counter array is row-major, so this emits exactly the same
	// row-by-row byte stream as the pre-flat [][]float64 layout did. An int32
	// counter is the float64 of its value, the word the float64 path holds.
	for _, v := range cm.counts32 {
		w.f64(float64(v))
	}
	for _, v := range cm.counts {
		w.f64(v)
	}
	return w.buf, nil
}

// countMinHeaderLen is how many bytes of a Count-Min encoding precede the
// counters.
const countMinHeaderLen = 6 + 1 + 1 + 4 + 4 + 8 + 8

// appendEncodingHeader appends everything MarshalBinary puts ahead of the
// counters, with the given total mass.
func (cm *CountMin) appendEncodingHeader(dst []byte, totalMass float64) []byte {
	var conservative uint8
	if cm.conservative {
		conservative = 1
	}
	dst = append(appendHeader(dst, kindCountMin), uint8(cm.family), conservative)
	dst = binary.BigEndian.AppendUint32(dst, uint32(cm.width))
	dst = binary.BigEndian.AppendUint32(dst, uint32(cm.depth))
	dst = binary.BigEndian.AppendUint64(dst, cm.seed)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(totalMass))
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary, reconstructing
// the hash functions from the serialized seed so the result behaves
// bit-identically to the original.
func (cm *CountMin) UnmarshalBinary(data []byte) error {
	r := newReader(data, kindCountMin, "sketch: CountMin")
	family := hashing.Family(r.U8())
	conservative := r.U8() == 1
	width := r.U32()
	depth := r.U32()
	seed := r.U64()
	totalMass := r.U64()
	r.checkDims(width, depth)
	r.checkFamily(family)
	body := r.Records(uint64(width)*uint64(depth), 8)
	if totalMass&frame.Float64ExpMask == frame.Float64ExpMask {
		r.Failf("total mass is not finite")
	}
	if err := r.Err(); err != nil {
		return err
	}
	out := newCountMinFromSeed(seed, int(width), int(depth), family, conservative)
	out.totalMass = math.Float64frombits(totalMass)
	r.countMinCounters(body, out)
	if err := r.Err(); err != nil {
		return err
	}
	*cm = *out
	return nil
}

// CountSketch ---------------------------------------------------------------

// MarshalBinary encodes the sketch: a versioned header carrying the family,
// width, depth and hash seed, followed by the d x w counter matrix.
func (cs *CountSketch) MarshalBinary() ([]byte, error) {
	w := writer{buf: make([]byte, 0, 6+1+4+4+8+8*cs.width*cs.depth)}
	w.header(kindCountSketch)
	w.u8(uint8(cs.family))
	w.u32(uint32(cs.width))
	w.u32(uint32(cs.depth))
	w.u64(cs.seed)
	// Row-major flat array: byte stream identical to the pre-flat layout.
	for _, v := range cs.counts {
		w.f64(v)
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary.
func (cs *CountSketch) UnmarshalBinary(data []byte) error {
	r := newReader(data, kindCountSketch, "sketch: CountSketch")
	family := hashing.Family(r.U8())
	width := r.U32()
	depth := r.U32()
	seed := r.U64()
	r.checkDims(width, depth)
	r.checkFamily(family)
	body := r.Records(uint64(width)*uint64(depth), 8)
	if err := r.Err(); err != nil {
		return err
	}
	out := newCountSketchFromSeed(seed, int(width), int(depth), family)
	r.counters(body, out.counts)
	if err := r.Err(); err != nil {
		return err
	}
	*cs = *out
	return nil
}

// BloomFilter ---------------------------------------------------------------

// MarshalBinary encodes the filter: a versioned header carrying the bit
// count, hash count, hash seed and insertion count, followed by the bit
// array words.
func (bf *BloomFilter) MarshalBinary() ([]byte, error) {
	w := writer{buf: make([]byte, 0, 6+8+4+8+8+8*len(bf.bits))}
	w.header(kindBloom)
	w.u64(bf.m)
	w.u32(uint32(len(bf.hashes)))
	w.u64(bf.seed)
	w.u64(uint64(bf.count))
	for _, word := range bf.bits {
		w.u64(word)
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a filter produced by MarshalBinary.
func (bf *BloomFilter) UnmarshalBinary(data []byte) error {
	r := newReader(data, kindBloom, "sketch: BloomFilter")
	m := r.U64()
	k := r.U32()
	seed := r.U64()
	count := r.U64()
	r.checkDims(k)
	if m < 1 || m > 1<<36 {
		r.Failf("bit count %d out of range", m)
	}
	// Each hash function is constructed before a payload byte is read, so the
	// body must pay for k: more hashes than bits (64 for the smallest
	// filters) is no filter anyone sized, and 2^30 of them behind a 42-byte
	// body is minutes of work.
	if uint64(k) > max(64, m) {
		r.Failf("%d hash functions for %d bits", k, m)
	}
	body := r.Records((m+63)/64, 8)
	if err := r.Err(); err != nil {
		return err
	}
	out := newBloomFilterFromSeed(seed, m, int(k))
	out.count = int(count)
	for i := range out.bits {
		out.bits[i] = binary.BigEndian.Uint64(body[8*i:])
	}
	*bf = *out
	return nil
}

// HeavyHitterTracker ---------------------------------------------------------

// MarshalBinary encodes the tracker: a versioned header, the candidate
// capacity k, the embedded (length-prefixed) Count-Min encoding, and the
// candidate item identifiers in ascending order. Candidate scores are not
// shipped — the decoder re-derives them from the counters, exactly as
// report-time re-scoring does — so the encoding of a tracker is a pure
// function of (k, counters, candidate set) and survives a marshal/unmarshal
// round trip byte-identically.
func (t *HeavyHitterTracker) MarshalBinary() ([]byte, error) {
	cmBytes, err := t.cm.MarshalBinary()
	if err != nil {
		return nil, err
	}
	items := t.sortedCandidates()
	buf := make([]byte, 0, trackerHeaderLen+len(cmBytes)+4+8*len(items))
	w := writer{buf: append(t.appendEncodingHeader(buf, len(cmBytes)), cmBytes...)}
	w.u32(uint32(len(items)))
	for _, item := range items {
		w.u64(item)
	}
	return w.buf, nil
}

// trackerHeaderLen is how many bytes of a tracker encoding precede the
// embedded Count-Min.
const trackerHeaderLen = 6 + 4 + 4

// appendEncodingHeader appends everything MarshalBinary puts ahead of the
// embedded Count-Min encoding, which is cmLen bytes long.
func (t *HeavyHitterTracker) appendEncodingHeader(dst []byte, cmLen int) []byte {
	dst = binary.BigEndian.AppendUint32(appendHeader(dst, kindTracker), uint32(t.k))
	return binary.BigEndian.AppendUint32(dst, uint32(cmLen))
}

// sortedCandidates returns the candidate keys in ascending order, the order
// they are encoded in.
func (t *HeavyHitterTracker) sortedCandidates() []uint64 {
	items := t.candidateItems()
	slices.Sort(items)
	return items
}

// UnmarshalBinary decodes a tracker produced by MarshalBinary: the embedded
// Count-Min is reconstructed (hash seeds and all), and the candidate heap is
// rebuilt by scoring each shipped item against the decoded counters.
func (t *HeavyHitterTracker) UnmarshalBinary(data []byte) error {
	r := newReader(data, kindTracker, "sketch: HeavyHitterTracker")
	k := r.U32()
	r.checkDims(k)
	cmBytes := r.Section(4, len(data))
	if err := r.Err(); err != nil {
		return err
	}
	cm := &CountMin{}
	if err := cm.UnmarshalBinary(cmBytes); err != nil {
		return fmt.Errorf("sketch: HeavyHitterTracker: embedded sketch: %w", err)
	}
	if cm.conservative {
		// No constructor builds one, and the tracker's update kernel adds
		// linearly; refuse rather than ingest under the wrong rule.
		return fmt.Errorf("sketch: HeavyHitterTracker: embedded sketch uses conservative update, which is not linear")
	}
	n := r.U32()
	if uint64(n) > uint64(k) {
		r.Failf("%d candidates exceed capacity %d", n, k)
	}
	body := r.Records(uint64(n), 8)
	if err := r.Err(); err != nil {
		return err
	}
	items := make([]uint64, n)
	for i := range items {
		items[i] = binary.BigEndian.Uint64(body[8*i:])
	}
	out := newHeavyHitterTracker(cm, int(k))
	out.absorbCandidates(items)
	*t = *out
	return nil
}

// Dyadic ---------------------------------------------------------------------

// MarshalBinary encodes the hierarchy: a versioned header, the universe
// exponent logU, and each level's (length-prefixed) Count-Min encoding from
// level 0 upward. Every level carries its own hash seed, so the decoded
// hierarchy answers range sums, quantiles and heavy-hitter descents
// bit-identically to the original.
func (d *Dyadic) MarshalBinary() ([]byte, error) {
	levels := make([][]byte, len(d.levels))
	total := 0
	for l, cm := range d.levels {
		data, err := cm.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("sketch: Dyadic level %d: %w", l, err)
		}
		levels[l] = data
		total += 4 + len(data)
	}
	w := writer{buf: make([]byte, 0, 6+4+total)}
	w.header(kindDyadic)
	w.u32(uint32(d.logU))
	for _, data := range levels {
		w.buf = frame.AppendSection(w.buf, 4, data)
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a hierarchy produced by MarshalBinary,
// reconstructing every level's hash functions from its serialized seed.
func (d *Dyadic) UnmarshalBinary(data []byte) error {
	r := newReader(data, kindDyadic, "sketch: Dyadic")
	logU := r.U32()
	if logU < 1 || logU > 63 {
		r.Failf("universe exponent %d out of range [1, 63]", logU)
	}
	if err := r.Err(); err != nil {
		return err
	}
	out := &Dyadic{
		logU:     int(logU),
		levels:   make([]*CountMin, logU+1),
		universe: 1 << logU,
	}
	for l := range out.levels {
		cmBytes := r.Section(4, len(data))
		if err := r.Err(); err != nil {
			return err
		}
		cm := &CountMin{}
		if err := cm.UnmarshalBinary(cmBytes); err != nil {
			return fmt.Errorf("sketch: Dyadic level %d: %w", l, err)
		}
		out.levels[l] = cm
	}
	if err := r.Done(); err != nil {
		return err
	}
	*d = *out
	return nil
}

// IBLT ----------------------------------------------------------------------

// MarshalBinary encodes the table: a versioned header carrying the cell
// count, hash count and hash seed, followed by the (count, keySum, hashSum)
// triple of every cell.
func (t *IBLT) MarshalBinary() ([]byte, error) {
	w := writer{buf: make([]byte, 0, 6+4+4+8+24*len(t.cells))}
	w.header(kindIBLT)
	w.u32(uint32(len(t.cells)))
	w.u32(uint32(t.k))
	w.u64(t.seed)
	for _, c := range t.cells {
		w.u64(uint64(c.count))
		w.u64(c.keySum)
		w.u64(c.hashSum)
	}
	return w.buf, nil
}

// Delta envelope -------------------------------------------------------------
//
// The dense encodings above ship every counter, zero or not — the right call
// for full snapshots, and the wrong one for snapshot *differences*, which by
// linearity are valid sketches whose counters are mostly zero (only the
// buckets touched since the previous snapshot move) and, when the updates are
// integer counts, small integers where they are not. A KindDelta envelope
// carries a compression of an inner encoding that knows both shapes, in two
// stages — tokens, then an entropy code over the token bytes:
//
//	magic    [4]byte  "SKC1"
//	version  uint8    encodingVersion
//	kind     uint8    kindDelta (9; kind 7, the envelope before integer
//	                  tokens, and kind 8, the one before the entropy stage,
//	                  are retired and refused by name)
//	rawLen   uint32   length of the inner encoding in bytes
//	method   uint8    0: the token stream follows as is; 1: Huffman-coded
//	tokenLen uint32   length of the token stream in bytes, at most
//	                  rawLen + rawLen/4 + 8
//	method 0:
//	  tokens          tokenLen bytes
//	method 1:
//	  table           the code length of each byte value 0..255, in runs:
//	                  one byte length<<4 | run-1 for each maximal run of up
//	                  to 16 equal lengths (a length is a nibble, so never
//	                  over 15; 0 is an absent byte value)
//	  bitstream       the tokenLen token bytes in the canonical code of the
//	                  table, MSB first, zero-padded to a whole byte
//
// The token stream is tagged uvarints t, each continuing the inner bytes with
//
//	t&3 == 0: t>>2 >= 1 zero bytes
//	t&3 == 1: a literal of t>>2 >= 1 bytes, which follow t
//	t&3 == 2: the 8 big-endian bytes of Float64bits(float64(v)),
//	          v = unzigzag(t>>2), v != 0 and |v| <= 2^53
//	t&3 == 3: invalid
//
// An integer counter word is one token byte for |v| < 16 and two below 2048,
// a zero counter is part of a zero run, and anything else — a fractional or
// huge counter, −0, a header field, a candidate key — travels as a literal.
// The token stream is a pure function of the inner bytes, fixed by a greedy
// left-to-right rule, with minimal uvarints:
//
//   - at a nonzero byte with at least 8 bytes left that form an integer word,
//     emit the word's token;
//   - otherwise a nonzero byte extends the open literal or opens one, and a
//     zero byte extends the zero run;
//   - a gap of fewer than 4 zeros between two literal bytes stays in the
//     literal; a longer gap, or one that ends at an integer word or at the
//     end of the input, closes the literal and is a zero run.
//
// The entropy stage (entropy.go) is a pure function of the token stream: the
// code is a length-limited Huffman code of its byte histogram, and the method
// is 1 exactly when the table and bitstream are shorter than the tokens. A
// frame therefore never costs more than its token stream and 15 header bytes.
// The decoder holds an envelope to all of it — minimal uvarints, the greedy
// token boundaries, the table, the method, zero padding and no trailing
// bytes — so every inner encoding has one envelope, and decode → encode is a
// fixed point.
//
// The scheme is agnostic to the inner kind — Count-Min, tracker, dyadic and
// every future family get compact deltas for free — and the inner bytes come
// back verbatim, so the decoded sketch is bit-identical: counter words stay
// float64, and an integer token only ever spells the word it replaces.
//
// There is one encoder, tokenWriter, and it streams: it is fed the inner
// encoding piece by piece and never needs it in one buffer. EncodeDelta feeds
// it an encoding that already exists; AppendDeltaSince (Count-Min and
// tracker) feeds it the difference of two sketches counter by counter, so the
// replicator's per-tick delta is cut, encoded and framed in one pass with no
// difference sketch and no dense encoding in between. The tokens land in
// the output buffer, and sealDelta codes them there. On the way back
// DecodeDeltaInto expands an envelope into a buffer the caller keeps, the
// token parser pulling each byte straight off the bitstream: no token stream
// is ever held on that side.

// Envelope token tags, the low two bits of every token.
const (
	tagZeros   = 0
	tagLiteral = 1
	tagInteger = 2
)

// maxTokenInteger bounds an integer token's magnitude: every integer up to
// 2^53 is exactly a float64.
const maxTokenInteger = 1 << 53

// tokenInteger returns v when w is the float64 bits of an integer v with
// 0 < |v| <= 2^53, a word an integer token stands for. −0, NaN and ±Inf are
// not such words, and neither is any word whose first byte is zero.
func tokenInteger(w uint64) (int64, bool) {
	x := math.Float64frombits(w)
	if a := math.Abs(x); !(a >= 1 && a <= maxTokenInteger) {
		return 0, false
	}
	v := int64(x)
	return v, float64(v) == x
}

// tokenWriter emits the token stream of an inner encoding it is fed in order,
// as bytes, zero runs or 8-byte big-endian words in any mix and at any
// alignment. Whether a nonzero byte starts an integer word depends on the 7
// bytes after it, so up to 7 bytes at the end of the input so far wait in
// ahead until enough follows to decide them. The decided input before them
// ends in exactly one of: a zero run with no literal open (zeros), or an open
// literal followed by fewer than 4 zeros that the next decided byte takes
// into it or leaves as a zero run (gap).
type tokenWriter struct {
	out    []byte
	zeros  uint64 // zero run ahead of the next token; open is false
	open   bool   // a literal is open: its tag byte sits at out[at]
	at     int
	gap    int     // zeros decided since the open literal's last byte, < 4
	ahead  [7]byte // undecided input, starting at a nonzero byte
	nahead int
}

// zeroWord feeds zeroRun's waiting bytes their deciding zeros.
var zeroWord [8]byte

// zeroRun feeds n zero bytes.
func (e *tokenWriter) zeroRun(n int) {
	if e.nahead > 0 && n > 0 {
		// Eight zeros behind the waiting bytes decide all of them.
		k := min(n, 8)
		e.bytes(zeroWord[:k])
		n -= k
	}
	e.zero(n)
}

// word feeds n zero bytes and then the 8 big-endian bytes of w: the step
// every changed counter of a difference takes. With nothing waiting and no
// literal open, the next token starts at w's first byte, so an integer word
// is the zero run's token and its own — that is nearly every counter this
// system ships.
func (e *tokenWriter) word(n int, w uint64) {
	if e.nahead == 0 && !e.open {
		if v, ok := tokenInteger(w); ok {
			// integer(v), spelled out: the call costs ~8 % of the encode.
			e.zeros += uint64(n)
			e.flushZeros()
			e.out = binary.AppendUvarint(e.out, uint64(v<<1^v>>63)<<2|tagInteger)
			return
		}
	}
	e.zeroRun(n)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], w)
	e.bytes(b[:])
}

// bytes feeds a stretch of the inner encoding.
func (e *tokenWriter) bytes(p []byte) {
	if e.nahead > 0 {
		// Decide the waiting bytes with p's first bytes behind them, then go
		// on from whatever is still undecided.
		var buf [16]byte
		n := copy(buf[:], e.ahead[:e.nahead])
		k := copy(buf[n:], p)
		e.nahead = 0
		rest := e.scan(buf[:n+k], false)
		if len(rest) > k {
			e.nahead = copy(e.ahead[:], rest)
			return
		}
		p = p[k-len(rest):]
	}
	e.nahead = copy(e.ahead[:], e.scan(p, false))
}

// scan decides p, which nothing waits ahead of, as far as p itself allows,
// and returns the undecided rest: p from the first nonzero byte not inside a
// token with fewer than 7 bytes after it. With end set p closes the input, no
// word starts in its last 7 bytes, and nothing is left undecided.
func (e *tokenWriter) scan(p []byte, end bool) []byte {
	for len(p) > 0 {
		switch {
		case p[0] == 0:
			n := zeroPrefix(p)
			e.zero(n)
			p = p[n:]
		case len(p) < 8 && !end:
			return p
		default:
			if len(p) >= 8 {
				if v, ok := tokenInteger(binary.BigEndian.Uint64(p)); ok {
					e.integer(v)
					p = p[8:]
					continue
				}
			}
			e.literal(p[0])
			p = p[1:]
		}
	}
	return nil
}

// zeroPrefix returns the length of the run of zero bytes p starts with.
func zeroPrefix(p []byte) int {
	n := 0
	for ; len(p)-n >= 8; n += 8 {
		if w := binary.BigEndian.Uint64(p[n:]); w != 0 {
			return n + bits.LeadingZeros64(w)>>3
		}
	}
	for n < len(p) && p[n] == 0 {
		n++
	}
	return n
}

// zero decides n zero bytes.
func (e *tokenWriter) zero(n int) {
	if !e.open {
		e.zeros += uint64(n)
		return
	}
	if e.gap += n; e.gap >= 4 {
		e.closeLiteral()
	}
}

// literal decides one literal byte: it takes the gap into the open literal,
// or opens one behind the pending zero run.
func (e *tokenWriter) literal(b byte) {
	if e.open {
		e.out = append(e.out, "\x00\x00\x00"[:e.gap]...)
		e.gap = 0
	} else {
		e.flushZeros()
		e.at = len(e.out)
		e.out = append(e.out, 0) // the literal's tag, written when it closes
		e.open = true
	}
	e.out = append(e.out, b)
}

// integer decides the word of v. It closes an open literal, whose gap is then
// a zero run ahead of the word's token.
func (e *tokenWriter) integer(v int64) {
	if e.open {
		e.closeLiteral()
	}
	e.flushZeros()
	e.out = binary.AppendUvarint(e.out, uint64(v<<1^v>>63)<<2|tagInteger)
}

// flushZeros writes the pending zero run's token, if there is a run.
func (e *tokenWriter) flushZeros() {
	if e.zeros > 0 {
		e.out = binary.AppendUvarint(e.out, e.zeros<<2|tagZeros)
		e.zeros = 0
	}
}

// closeLiteral writes the open literal's tag ahead of its bytes and leaves the
// gap behind it as the pending zero run. One byte was reserved for the tag; a
// literal of 32 bytes or more moves up to make room.
func (e *tokenWriter) closeLiteral() {
	n := len(e.out) - e.at - 1
	if t := uint64(n)<<2 | tagLiteral; t < 0x80 {
		e.out[e.at] = byte(t)
	} else {
		var v [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(v[:], t)
		e.out = append(e.out, v[1:k]...)
		copy(e.out[e.at+k:], e.out[e.at+1:e.at+1+n])
		copy(e.out[e.at:], v[:k])
	}
	e.open = false
	e.zeros, e.gap = uint64(e.gap), 0
}

// finish ends the input — which decides the waiting bytes and closes an open
// literal, wherever it stands — and returns the output.
func (e *tokenWriter) finish() []byte {
	n := e.nahead
	e.nahead = 0
	e.scan(e.ahead[:n], true)
	if e.open {
		e.closeLiteral()
	}
	e.flushZeros()
	return e.out
}

// appendDeltaHeader appends a KindDelta envelope's fixed header, declaring an
// inner encoding of rawLen bytes; sealDelta fills in the method and the
// token-stream length once the tokens follow it.
func appendDeltaHeader(dst []byte, rawLen int) []byte {
	dst = binary.BigEndian.AppendUint32(appendHeader(dst, kindDelta), uint32(rawLen))
	return append(dst, methodStored, 0, 0, 0, 0)
}

// EncodeDelta wraps an encoded sketch (the output of any MarshalBinary) in
// the compressed KindDelta envelope. Use it when the sketch is a snapshot
// difference: mostly zero or small integer counters compress to a small
// fraction of the dense size.
func EncodeDelta(inner []byte) []byte {
	dst := make([]byte, 0, deltaHeaderLen+64+len(inner)/4)
	e := tokenWriter{out: appendDeltaHeader(dst, len(inner))}
	e.bytes(inner)
	return sealDelta(e.finish(), 0)
}

// feedDeltaSince feeds e the encoding of the difference cm - base: cm's
// header with the difference of the masses, then each counter's difference
// in order, runs of unchanged counters going in as one zero run each. A base
// without counters (a Prototype) is the empty sketch, and v - 0 is v bit for
// bit (-0 and NaN included), so that case feeds cm's own counters: the same
// bytes a zero-filled base would give, chosen once here and not per counter.
// Two int32 counters differ by an exact int64, whose float64 is the float64
// difference, +0 for equal counters included.
func (cm *CountMin) feedDeltaSince(e *tokenWriter, base *CountMin) {
	var head [countMinHeaderLen]byte
	e.bytes(cm.appendEncodingHeader(head[:0], cm.totalMass-base.totalMass))
	zeros := 0
	feed := func(w uint64) {
		if w == 0 {
			zeros += 8
			return
		}
		e.word(zeros, w)
		zeros = 0
	}
	switch a, b := cm.counts32, base.counts32; {
	case a != nil && base.stored() == 0:
		for _, v := range a {
			feed(math.Float64bits(float64(v)))
		}
	case a != nil && b != nil:
		for i, v := range a {
			feed(math.Float64bits(float64(int64(v) - int64(b[i]))))
		}
	case base.stored() == 0:
		for _, v := range cm.counts {
			feed(math.Float64bits(v))
		}
	default:
		for i := range cm.stored() {
			feed(math.Float64bits(cm.at(i) - base.at(i)))
		}
	}
	e.zeroRun(zeros)
}

// AppendDeltaSince appends to dst the KindDelta envelope of the difference
// cm - base, byte for byte what EncodeDelta makes of the MarshalBinary of a
// Copy of cm after Sub(base), without building any of the three: no copy, no
// difference sketch, no dense encoding. base must share cm's hash functions;
// like Sub, only dimensions and linearity are checked, and on error dst comes
// back as it was. An empty base (a Prototype, or a Clone at 8 bytes a counter)
// makes the envelope of cm itself.
func (cm *CountMin) AppendDeltaSince(dst []byte, base *CountMin) ([]byte, error) {
	if err := cm.subtractable(base); err != nil {
		return dst, err
	}
	at := len(dst)
	e := tokenWriter{out: appendDeltaHeader(dst, countMinHeaderLen+8*cm.stored())}
	cm.feedDeltaSince(&e, base)
	return sealDelta(e.finish(), at), nil
}

// AppendDeltaSince is CountMin.AppendDeltaSince for a tracker: the envelope
// of t - base as Sub defines it — the difference of the backing counters with
// t's own candidates riding along — in one pass over the two counter arrays.
// It is the replicator's whole encode step, and into a dst of enough capacity
// it allocates only the sorted candidate keys, whatever the width.
func (t *HeavyHitterTracker) AppendDeltaSince(dst []byte, base *HeavyHitterTracker) ([]byte, error) {
	if err := t.cm.subtractable(base.cm); err != nil {
		return dst, err
	}
	items := t.sortedCandidates()
	cmLen := countMinHeaderLen + 8*t.cm.stored()
	at := len(dst)
	e := tokenWriter{out: appendDeltaHeader(dst, trackerHeaderLen+cmLen+4+8*len(items))}
	var head [trackerHeaderLen]byte
	e.bytes(t.appendEncodingHeader(head[:0], cmLen))
	t.cm.feedDeltaSince(&e, base.cm)
	e.bytes(binary.BigEndian.AppendUint32(head[:0], uint32(len(items))))
	for _, item := range items {
		e.word(0, item)
	}
	return sealDelta(e.finish(), at), nil
}

// maxDeltaInner is the default DecodeDelta bound on the declared inner
// length: generous for any realistic sketch (16M counters) while keeping a
// forged header from demanding an arbitrary allocation.
const maxDeltaInner = 128 << 20

// DecodeDelta unwraps a KindDelta envelope and returns the inner sketch
// encoding verbatim, ready for PeekKind dispatch and UnmarshalBinary. It
// rejects truncated, oversized and self-inconsistent envelopes, and any
// envelope other than the one EncodeDelta makes of the inner bytes; the inner
// length is capped at a generous package default (see DecodeDeltaLimit for
// callers that know how big their sketches can legitimately be — the
// envelope compresses, so a tiny body can declare a large inner length,
// and the cap is what stands between a forged header and the allocator).
func DecodeDelta(data []byte) ([]byte, error) {
	return DecodeDeltaLimit(data, maxDeltaInner)
}

// DecodeDeltaLimit is DecodeDelta with a caller-chosen ceiling on the
// declared inner length. Transports should pass a small multiple of their
// own sketch's dense encoding size, so a forged header cannot demand more
// memory than a legitimate peer ever would.
func DecodeDeltaLimit(data []byte, maxInner int) ([]byte, error) {
	return DecodeDeltaInto(nil, data, maxInner)
}

// DecodeDeltaInto is DecodeDeltaLimit decoding into buf's backing array when
// the declared inner length fits its capacity (whatever buf held is cleared
// first) and into a fresh allocation when it does not. The result shares no
// memory with data. On error it returns nil; buf is the caller's to reuse
// either way.
func DecodeDeltaInto(buf, data []byte, maxInner int) ([]byte, error) {
	if _, err := PeekKind(data); err != nil {
		return nil, err
	}
	r := newReader(data, kindDelta, "sketch: Delta")
	rawLen := r.U32()
	method := r.U8()
	tokenLen := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if maxInner < 0 || maxInner > maxDeltaInner {
		maxInner = maxDeltaInner
	}
	if rawLen > uint32(maxInner) {
		return nil, fmt.Errorf("sketch: Delta: inner length %d exceeds limit %d", rawLen, maxInner)
	}
	if uint64(tokenLen) > maxTokenLen(uint64(rawLen)) {
		return nil, fmt.Errorf("sketch: Delta: token stream of %d bytes is longer than %d inner bytes can need", tokenLen, rawLen)
	}
	var src tokenSource
	table, err := src.init(method, r.Take(r.Len()), tokenLen)
	if err != nil {
		return nil, err
	}
	// The zero runs are the cleared buffer showing through: only literals and
	// integer words are written.
	var inner []byte
	if uint64(cap(buf)) >= uint64(rawLen) {
		inner = buf[:rawLen]
		clear(inner)
	} else {
		inner = make([]byte, rawLen)
	}
	err = expandTokens(&src, inner)
	if src.fault != nil {
		err = src.fault // a bad bitstream shows first as whatever its zeros spell
	}
	if err == nil {
		err = src.finish(method, table, tokenLen)
	}
	if err != nil {
		return nil, err
	}
	return inner, nil
}

// errNotGreedy refuses a token stream that spells its inner bytes other than
// the greedy rule does.
func errNotGreedy(what string) error {
	return fmt.Errorf("sketch: Delta: token stream is not the greedy rule's: %s", what)
}

// expandTokens writes the inner bytes the token stream of src spells into
// inner, which is zero, checking that the stream is the one tokenWriter makes
// of them. The checks follow the greedy rule: minimal uvarints; no two zero
// runs or two literals in a row; a literal with nonzero ends, no 4 zeros
// inside, and no integer word starting at a byte of it; and fewer than 4
// zeros after a literal only ahead of an integer word or the end. A word
// starting near a literal's end reaches into the tokens after it, so those
// bytes are checked once the next 8 bytes are written (pend).
func expandTokens(src *tokenSource, inner []byte) error {
	pos, prev, gap := 0, -1, false
	pendLo, pendHi := 0, 0 // literal bytes still to check for a word start
	for src.at < src.n || src.remaining() > 0 {
		var t uint64
		if src.at < src.n { // next, inlined for the decoded chunk's bytes
			t = uint64(src.chunk[src.at])
			src.at++
		} else {
			t = uint64(src.next())
		}
		if t >= 0x80 {
			var ok bool
			if t, ok = src.uvarint(byte(t)); !ok {
				return fmt.Errorf("sketch: Delta: malformed token")
			}
		}
		arg, left := t>>2, uint64(len(inner)-pos)
		shortGap := gap
		gap = false
		switch tag := int(t & 3); tag {
		case tagZeros, tagLiteral:
			if arg == 0 {
				return fmt.Errorf("sketch: Delta: empty zero run or literal")
			}
			if arg > left {
				return fmt.Errorf("sketch: Delta: token overruns declared inner length %d", len(inner))
			}
			if prev == tag {
				return errNotGreedy("two zero runs or two literals in a row")
			}
			if tag == tagZeros {
				gap = prev == tagLiteral && arg < 4
				pos += int(arg)
				break
			}
			if uint64(src.remaining()) < arg {
				return fmt.Errorf("sketch: Delta: truncated literal (need %d bytes, have %d)", arg, src.remaining())
			}
			if shortGap {
				return errNotGreedy("fewer than 4 zeros between two literals")
			}
			lit := inner[pos : pos+int(arg)]
			src.read(lit)
			if err := checkLiteral(lit); err != nil {
				return err
			}
			if pendLo >= pendHi {
				pendLo = pos
			}
			pos += int(arg)
			pendHi = pos
		case tagInteger:
			// arg is v zigzagged: 1..2^54 is every v with 0 < |v| <= 2^53.
			if arg == 0 || arg > 2*maxTokenInteger {
				return fmt.Errorf("sketch: Delta: integer token out of range")
			}
			if left < 8 {
				return fmt.Errorf("sketch: Delta: token overruns declared inner length %d", len(inner))
			}
			v := int64(arg>>1) ^ -int64(arg&1)
			binary.BigEndian.PutUint64(inner[pos:], math.Float64bits(float64(v)))
			pos += 8
		default:
			return fmt.Errorf("sketch: Delta: invalid token tag 3")
		}
		prev = int(t & 3)
		if pendLo < pendHi && pendLo+8 <= pos {
			var err error
			if pendLo, err = checkWordStarts(inner[:pos], pendLo, pendHi); err != nil {
				return err
			}
		}
	}
	if pos != len(inner) {
		return fmt.Errorf("sketch: Delta: payload decompresses to %d bytes, header claims %d", pos, len(inner))
	}
	_, err := checkWordStarts(inner, pendLo, pendHi)
	return err
}

// uvarint reads the rest of a uvarint whose first byte was b, refusing an
// overflowing, truncated or non-minimal one.
func (s *tokenSource) uvarint(b byte) (uint64, bool) {
	x := uint64(b & 0x7f)
	for shift := 7; ; shift += 7 {
		if s.remaining() == 0 {
			return 0, false
		}
		b = s.next()
		if shift == 63 && b > 1 {
			return 0, false
		}
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, b != 0
		}
	}
}

// checkLiteral refuses a literal the greedy rule would not have made: one that
// starts or ends with a zero, or holds 4 zeros in a row.
func checkLiteral(lit []byte) error {
	if lit[0] == 0 || lit[len(lit)-1] == 0 {
		return errNotGreedy("a literal starts or ends with a zero")
	}
	zeros := 0
	for _, b := range lit {
		if b != 0 {
			zeros = 0
		} else if zeros++; zeros == 4 {
			return errNotGreedy("a literal holds 4 zeros in a row")
		}
	}
	return nil
}

// checkWordStarts checks the literal bytes inner[lo:hi] whose 8 bytes inner
// holds, refusing one where an integer word starts; it returns where it
// stopped.
func checkWordStarts(inner []byte, lo, hi int) (int, error) {
	for ; lo < hi && lo+8 <= len(inner); lo++ {
		if inner[lo] == 0 {
			continue
		}
		if _, ok := tokenInteger(binary.BigEndian.Uint64(inner[lo:])); ok {
			return lo, errNotGreedy("an integer word inside a literal")
		}
	}
	return lo, nil
}

// UnmarshalBinary decodes a table produced by MarshalBinary.
func (t *IBLT) UnmarshalBinary(data []byte) error {
	r := newReader(data, kindIBLT, "sketch: IBLT")
	m := r.U32()
	k := r.U32()
	seed := r.U64()
	r.checkDims(m, k)
	body := r.Records(uint64(m), 24)
	if err := r.Err(); err != nil {
		return err
	}
	out := newIBLTFromSeed(seed, int(m), int(k))
	for i := range out.cells {
		c := body[24*i:]
		out.cells[i] = ibltCell{
			count:   int64(binary.BigEndian.Uint64(c)),
			keySum:  binary.BigEndian.Uint64(c[8:]),
			hashSum: binary.BigEndian.Uint64(c[16:]),
		}
	}
	*t = *out
	return nil
}
