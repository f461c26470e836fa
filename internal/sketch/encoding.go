package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

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
// Floats are encoded as IEEE-754 bits so counters round-trip exactly.

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
	kindDelta       = 7
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
	// KindDelta is not a sketch of its own but an envelope: a zero-run-length
	// compressed encoding of another sketch's encoding, used when the wrapped
	// sketch is the *difference* of two snapshots and therefore mostly zero
	// counters. See EncodeDelta / DecodeDelta.
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
	if len(data) < 6 {
		return 0, fmt.Errorf("sketch: truncated encoding (need 6 header bytes, have %d)", len(data))
	}
	if [4]byte(data[:4]) != encodingMagic {
		return 0, fmt.Errorf("sketch: bad magic %q", data[:4])
	}
	if v := data[4]; v != encodingVersion {
		return 0, fmt.Errorf("sketch: unsupported encoding version %d (want %d)", v, encodingVersion)
	}
	k := Kind(data[5])
	switch k {
	case KindCountMin, KindCountSketch, KindBloom, KindIBLT, KindTracker, KindDyadic, KindDelta:
		return k, nil
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
func (w *writer) header(kind uint8) {
	w.buf = append(w.buf, encodingMagic[:]...)
	w.u8(encodingVersion)
	w.u8(kind)
}

// reader consumes big-endian primitives, remembering the first error so call
// sites can stay linear and check once at the end.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("sketch: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.fail("truncated encoding (need %d bytes, have %d)", n, len(r.buf))
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// expectHeader validates magic, version and kind, and returns false (with the
// error recorded) on any mismatch.
func (r *reader) expectHeader(kind uint8, name string) bool {
	b := r.take(4)
	if b == nil {
		return false
	}
	if [4]byte(b) != encodingMagic {
		r.fail("%s: bad magic %q", name, b)
		return false
	}
	if v := r.u8(); r.err == nil && v != encodingVersion {
		r.fail("%s: unsupported encoding version %d (want %d)", name, v, encodingVersion)
		return false
	}
	if k := r.u8(); r.err == nil && k != kind {
		r.fail("%s: wrong sketch kind %d (want %d)", name, k, kind)
		return false
	}
	return r.err == nil
}

// done verifies the buffer was consumed exactly.
func (r *reader) done(name string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("sketch: %s: %d trailing bytes after decode", name, len(r.buf))
	}
	return nil
}

// checkDims bounds width/depth-style dimensions read off the wire.
func (r *reader) checkDims(name string, dims ...uint32) {
	const maxDim = 1 << 30
	for _, d := range dims {
		if d < 1 || d > maxDim {
			r.fail("%s: dimension %d out of range [1, %d]", name, d, maxDim)
			return
		}
	}
}

// checkPayload verifies that exactly `words` 8-byte values remain in the
// buffer. It runs before any allocation sized from the header, so a corrupt
// header claiming huge dimensions fails here instead of demanding gigabytes.
func (r *reader) checkPayload(name string, words uint64) {
	if r.err != nil {
		return
	}
	if uint64(len(r.buf)) != 8*words {
		r.fail("%s: payload is %d bytes, header claims %d", name, len(r.buf), 8*words)
	}
}

// checkFamily verifies a family byte read off the wire names a known hash
// family (hashing.NewHasher panics on unknown families, so decoders must
// reject bad bytes with an error first).
func (r *reader) checkFamily(name string, f hashing.Family) {
	switch f {
	case hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation:
	default:
		r.fail("%s: unknown hash family %d", name, int(f))
	}
}

// CountMin ------------------------------------------------------------------

// MarshalBinary encodes the sketch: a versioned header carrying the family,
// conservative flag, width, depth and hash seed, followed by the total mass
// and the d x w counter matrix.
func (cm *CountMin) MarshalBinary() ([]byte, error) {
	w := writer{buf: make([]byte, 0, 6+1+1+4+4+8+8+8*cm.width*cm.depth)}
	w.header(kindCountMin)
	w.u8(uint8(cm.family))
	if cm.conservative {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(cm.width))
	w.u32(uint32(cm.depth))
	w.u64(cm.seed)
	w.f64(cm.totalMass)
	// The flat counter array is row-major, so this emits exactly the same
	// row-by-row byte stream as the pre-flat [][]float64 layout did.
	for _, v := range cm.counts {
		w.f64(v)
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary, reconstructing
// the hash functions from the serialized seed so the result behaves
// bit-identically to the original.
func (cm *CountMin) UnmarshalBinary(data []byte) error {
	r := reader{buf: data}
	if !r.expectHeader(kindCountMin, "CountMin") {
		return r.err
	}
	family := hashing.Family(r.u8())
	conservative := r.u8() == 1
	width := r.u32()
	depth := r.u32()
	seed := r.u64()
	totalMass := r.f64()
	r.checkDims("CountMin", width, depth)
	r.checkFamily("CountMin", family)
	r.checkPayload("CountMin", uint64(width)*uint64(depth))
	if r.err != nil {
		return r.err
	}
	out := newCountMinFromSeed(seed, int(width), int(depth), family, conservative)
	out.totalMass = totalMass
	for i := range out.counts {
		out.counts[i] = r.f64()
	}
	if err := r.done("CountMin"); err != nil {
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
	r := reader{buf: data}
	if !r.expectHeader(kindCountSketch, "CountSketch") {
		return r.err
	}
	family := hashing.Family(r.u8())
	width := r.u32()
	depth := r.u32()
	seed := r.u64()
	r.checkDims("CountSketch", width, depth)
	r.checkFamily("CountSketch", family)
	r.checkPayload("CountSketch", uint64(width)*uint64(depth))
	if r.err != nil {
		return r.err
	}
	out := newCountSketchFromSeed(seed, int(width), int(depth), family)
	for i := range out.counts {
		out.counts[i] = r.f64()
	}
	if err := r.done("CountSketch"); err != nil {
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
	r := reader{buf: data}
	if !r.expectHeader(kindBloom, "BloomFilter") {
		return r.err
	}
	m := r.u64()
	k := r.u32()
	seed := r.u64()
	count := r.u64()
	r.checkDims("BloomFilter", k)
	if r.err == nil && (m < 1 || m > 1<<36) {
		r.fail("BloomFilter: bit count %d out of range", m)
	}
	r.checkPayload("BloomFilter", (m+63)/64)
	if r.err != nil {
		return r.err
	}
	out := newBloomFilterFromSeed(seed, m, int(k))
	out.count = int(count)
	for i := range out.bits {
		out.bits[i] = r.u64()
	}
	if err := r.done("BloomFilter"); err != nil {
		return err
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
	items := t.CandidateItems()
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	w := writer{buf: make([]byte, 0, 6+4+4+len(cmBytes)+4+8*len(items))}
	w.header(kindTracker)
	w.u32(uint32(t.k))
	w.u32(uint32(len(cmBytes)))
	w.buf = append(w.buf, cmBytes...)
	w.u32(uint32(len(items)))
	for _, item := range items {
		w.u64(item)
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a tracker produced by MarshalBinary: the embedded
// Count-Min is reconstructed (hash seeds and all), and the candidate heap is
// rebuilt by scoring each shipped item against the decoded counters.
func (t *HeavyHitterTracker) UnmarshalBinary(data []byte) error {
	r := reader{buf: data}
	if !r.expectHeader(kindTracker, "HeavyHitterTracker") {
		return r.err
	}
	k := r.u32()
	r.checkDims("HeavyHitterTracker", k)
	cmLen := r.u32()
	cmBytes := r.take(int(cmLen))
	if r.err != nil {
		return r.err
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
	n := r.u32()
	if r.err == nil && uint64(n) > uint64(k) {
		r.fail("HeavyHitterTracker: %d candidates exceed capacity %d", n, k)
	}
	if r.err == nil && uint64(len(r.buf)) != 8*uint64(n) {
		r.fail("HeavyHitterTracker: candidate payload is %d bytes, header claims %d", len(r.buf), 8*uint64(n))
	}
	if r.err != nil {
		return r.err
	}
	items := make([]uint64, n)
	for i := range items {
		items[i] = r.u64()
	}
	if err := r.done("HeavyHitterTracker"); err != nil {
		return err
	}
	out := newHeavyHitterTracker(cm, int(k))
	out.AbsorbCandidates(items)
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
		w.u32(uint32(len(data)))
		w.buf = append(w.buf, data...)
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a hierarchy produced by MarshalBinary,
// reconstructing every level's hash functions from its serialized seed.
func (d *Dyadic) UnmarshalBinary(data []byte) error {
	r := reader{buf: data}
	if !r.expectHeader(kindDyadic, "Dyadic") {
		return r.err
	}
	logU := r.u32()
	if r.err == nil && (logU < 1 || logU > 63) {
		r.fail("Dyadic: universe exponent %d out of range [1, 63]", logU)
	}
	if r.err != nil {
		return r.err
	}
	out := &Dyadic{
		logU:     int(logU),
		levels:   make([]*CountMin, logU+1),
		universe: 1 << logU,
	}
	for l := range out.levels {
		cmLen := r.u32()
		cmBytes := r.take(int(cmLen))
		if r.err != nil {
			return r.err
		}
		cm := &CountMin{}
		if err := cm.UnmarshalBinary(cmBytes); err != nil {
			return fmt.Errorf("sketch: Dyadic level %d: %w", l, err)
		}
		out.levels[l] = cm
	}
	if err := r.done("Dyadic"); err != nil {
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
// linearity are valid sketches whose counters are almost all zero (only the
// buckets touched since the previous snapshot are nonzero). EncodeDelta
// wraps any encoded sketch in a KindDelta envelope whose payload is a
// byte-level zero-run-length compression of the inner encoding:
//
//	magic   [4]byte  "SKC1"
//	version uint8    encodingVersion
//	kind    uint8    kindDelta
//	rawLen  uint32   length of the inner encoding in bytes
//	tokens           repeated (zeroRun uvarint, litLen uvarint, lit bytes)
//
// Each token says "rawLen bytes continue with zeroRun zeros, then litLen
// literal bytes". Zero counters are eight zero bytes, so a sparse delta
// compresses by roughly the fraction of untouched counters; a dense sketch
// round-trips with only a few bytes of overhead. The scheme is agnostic to
// the inner kind — Count-Min, tracker, dyadic and every future family get
// sparse deltas for free, and the inner bytes come back verbatim, so the
// decoded sketch is bit-identical.

// EncodeDelta wraps an encoded sketch (the output of any MarshalBinary) in
// the compressed KindDelta envelope. Use it when the sketch is a snapshot
// difference: mostly-zero counters compress to a small fraction of the dense
// size.
func EncodeDelta(inner []byte) []byte {
	w := writer{buf: make([]byte, 0, 6+4+binary.MaxVarintLen64+len(inner)/4)}
	w.header(kindDelta)
	w.u32(uint32(len(inner)))
	var varint [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		w.buf = append(w.buf, varint[:binary.PutUvarint(varint[:], v)]...)
	}
	for i := 0; i < len(inner); {
		zeros := i
		for zeros < len(inner) && inner[zeros] == 0 {
			zeros++
		}
		lit := zeros
		// A literal run ends at the next stretch of >= 4 zeros (shorter zero
		// gaps cost less as literals than as a fresh token pair).
		for lit < len(inner) {
			if inner[lit] == 0 {
				end := lit
				for end < len(inner) && inner[end] == 0 {
					end++
				}
				if end-lit >= 4 || end == len(inner) {
					break
				}
				lit = end
				continue
			}
			lit++
		}
		putUvarint(uint64(zeros - i))
		putUvarint(uint64(lit - zeros))
		w.buf = append(w.buf, inner[zeros:lit]...)
		i = lit
	}
	return w.buf
}

// maxDeltaInner is the default DecodeDelta bound on the declared inner
// length: generous for any realistic sketch (16M counters) while keeping a
// forged header from demanding an arbitrary allocation.
const maxDeltaInner = 128 << 20

// DecodeDelta unwraps a KindDelta envelope and returns the inner sketch
// encoding verbatim, ready for PeekKind dispatch and UnmarshalBinary. It
// rejects truncated, oversized and self-inconsistent envelopes; the inner
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
	r := reader{buf: data}
	if !r.expectHeader(kindDelta, "Delta") {
		return nil, r.err
	}
	rawLen := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if maxInner < 0 || maxInner > maxDeltaInner {
		maxInner = maxDeltaInner
	}
	if rawLen > uint32(maxInner) {
		return nil, fmt.Errorf("sketch: Delta: inner length %d exceeds limit %d", rawLen, maxInner)
	}
	inner := make([]byte, 0, rawLen)
	buf := r.buf
	for len(buf) > 0 {
		zeros, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("sketch: Delta: malformed zero-run length")
		}
		buf = buf[n:]
		lit, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("sketch: Delta: malformed literal length")
		}
		buf = buf[n:]
		remaining := uint64(rawLen) - uint64(len(inner))
		if zeros > remaining || lit > remaining-zeros {
			return nil, fmt.Errorf("sketch: Delta: token overruns declared inner length %d", rawLen)
		}
		if uint64(len(buf)) < lit {
			return nil, fmt.Errorf("sketch: Delta: truncated literal run (need %d bytes, have %d)", lit, len(buf))
		}
		inner = append(inner, make([]byte, zeros)...)
		inner = append(inner, buf[:lit]...)
		buf = buf[lit:]
	}
	if uint32(len(inner)) != rawLen {
		return nil, fmt.Errorf("sketch: Delta: payload decompresses to %d bytes, header claims %d", len(inner), rawLen)
	}
	return inner, nil
}

// UnmarshalBinary decodes a table produced by MarshalBinary.
func (t *IBLT) UnmarshalBinary(data []byte) error {
	r := reader{buf: data}
	if !r.expectHeader(kindIBLT, "IBLT") {
		return r.err
	}
	m := r.u32()
	k := r.u32()
	seed := r.u64()
	r.checkDims("IBLT", m, k)
	r.checkPayload("IBLT", 3*uint64(m))
	if r.err != nil {
		return r.err
	}
	out := newIBLTFromSeed(seed, int(m), int(k))
	for i := range out.cells {
		out.cells[i] = ibltCell{
			count:   int64(r.u64()),
			keySum:  r.u64(),
			hashSum: r.u64(),
		}
	}
	if err := r.done("IBLT"); err != nil {
		return err
	}
	*t = *out
	return nil
}
