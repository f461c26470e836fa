package sketch

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/hashing"
	"repro/internal/xrand"
)

// CountMin is the Count-Min sketch of Cormode and Muthukrishnan [CM04]: a
// d x w array of counters, one pairwise-independent hash function per row.
// An update (item, delta) adds delta to one counter per row; a point query
// returns the minimum counter over the rows, which for non-negative streams
// overestimates the true count by at most eps*||x||_1 with probability at
// least 1-delta when w = ceil(e/eps) and d = ceil(ln(1/delta)).
//
// The counters live in one flat contiguous array (row r occupies
// [r*width, (r+1)*width)), and every batched path hashes through the
// row-set kernel of internal/hashing, which turns a chunk of keys into flat
// indices into that array for all rows at once. The batch path is
// bit-identical to per-item updates: for any one counter, the same deltas
// arrive in the same stream order either way.
//
// The array has one storage rule. It holds int32 counters while every one is
// an integer in [-2^31, 2^31), and widens once, for good, to float64 at the
// first input that cannot stay exact in 32 bits: a delta that is not an
// integer in int32 range (a fraction, NaN, ±Inf), a counter that would leave
// the range, or a Merge, Sub or Scale with an operand that cannot stay int32.
// A fresh sketch (NewCountMin, Clone) starts narrow, and a decoded one is
// narrow when every counter word is such an integer and not -0. A narrow
// counter's float64 is bit for bit the counter the float64 path would hold —
// integer sums below 2^53 are exact, and no int32 is -0 — so estimates, the
// total mass (always a float64) and every encoded byte are the same whichever
// storage a sketch has. Widening happens only in the sketch's own writer, and
// an overflowing update is caught before any of its counters is stored.
// Conservative-update sketches count in float64 from the start.
type CountMin struct {
	width int
	depth int
	// counts32 holds the counters while they fit 32 bits and counts once
	// widened: flat, row-major, row r at [r*width, (r+1)*width). Exactly one
	// is non-nil, except in a Prototype, which holds neither.
	counts32 []int32
	counts   []float64
	hashes   []hashing.Hasher
	// rows is the row-set kernel over hashes: what every batched path hashes
	// with. Immutable, shared with clones like the hashers themselves.
	rows *hashing.Rows
	// conservative enables conservative update (only raise the counters that
	// are below the new lower bound); only valid for non-negative deltas.
	conservative bool
	totalMass    float64
	// seed and family fully determine the hash functions: the rows are drawn
	// from xrand.New(seed) in order. MarshalBinary ships only (seed, family)
	// and UnmarshalBinary rebuilds hashers that are bit-identical in behavior.
	seed   uint64
	family hashing.Family

	// idxScratch is the reusable index matrix of UpdateBatch (see indexRows;
	// zero allocations steady-state). It makes writes single-goroutine, like
	// the counters themselves; reads (Estimate) never touch it, so snapshots
	// stay safe to query concurrently.
	idxScratch []uint64
	// oneKey/oneDelta back the per-item Update, which is a len-1 UpdateBatch.
	oneKey   [1]uint64
	oneDelta [1]float64
	// estScratch backs EstimateBatch (see estimate.go) the way idxScratch
	// backs UpdateBatch: sketch-owned, grown once, zero allocations
	// steady-state, single goroutine at a time. Concurrent readers use
	// EstimateBatchWith with their own scratch instead.
	estScratch EstimateScratch
	// est backs UpdateBatch's counter pass (see addAndMin), which writes each
	// item's estimate whether or not the caller wants it.
	est []float64
}

// CountMinOption configures a CountMin sketch at construction time.
type CountMinOption func(*countMinConfig)

type countMinConfig struct {
	family       hashing.Family
	conservative bool
}

// WithConservativeUpdate enables the conservative-update heuristic
// (Estan-Varghese), which reduces overestimation for insertion-only streams.
func WithConservativeUpdate() CountMinOption {
	return func(c *countMinConfig) { c.conservative = true }
}

// WithCountMinHashFamily selects the hash family used for the rows.
func WithCountMinHashFamily(f hashing.Family) CountMinOption {
	return func(c *countMinConfig) { c.family = f }
}

// NewCountMin creates a Count-Min sketch with the given width (counters per
// row) and depth (number of rows).
func NewCountMin(r *xrand.Rand, width, depth int, opts ...CountMinOption) *CountMin {
	if width < 1 || depth < 1 {
		panic(fmt.Sprintf("sketch: NewCountMin requires width, depth >= 1 (got %d, %d)", width, depth))
	}
	cfg := countMinConfig{family: hashing.FamilyPoly2}
	for _, o := range opts {
		o(&cfg)
	}
	return newCountMinFromSeed(r.Uint64(), width, depth, cfg.family, cfg.conservative)
}

// newCountMinFromSeed builds the sketch deterministically from a hash seed.
// It is the single construction path, shared by NewCountMin and
// UnmarshalBinary, so a deserialized sketch hashes identically to the
// original.
func newCountMinFromSeed(seed uint64, width, depth int, family hashing.Family, conservative bool) *CountMin {
	hr := xrand.New(seed)
	cm := &CountMin{
		width:        width,
		depth:        depth,
		hashes:       make([]hashing.Hasher, depth),
		conservative: conservative,
		seed:         seed,
		family:       family,
	}
	for i := 0; i < depth; i++ {
		cm.hashes[i] = hashing.NewHasher(family, hr, uint64(width))
	}
	cm.rows = hashing.NewRows(cm.hashes, width)
	cm.allocate()
	return cm
}

// allocate gives a counter-less sketch its zero counters: int32, or float64
// when conservative update rules out the int32 kernels.
func (cm *CountMin) allocate() {
	if cm.conservative {
		cm.counts = make([]float64, cm.width*cm.depth)
	} else {
		cm.counts32 = make([]int32, cm.width*cm.depth)
	}
}

// fitsInt32 returns v as an int32 when it is an integer in [-2^31, 2^31),
// -0 included (as 0): a delta or factor the int32 counters take exactly.
// Whatever an out-of-range conversion yields, it cannot convert back to v.
func fitsInt32(v float64) (int32, bool) {
	k := int32(v)
	return k, float64(k) == v
}

// negZeroBits is the float64 -0; a counter word holding it stays float64,
// since no int32 spells it.
const negZeroBits = 1 << 63

// narrowWord returns the int32 a counter word holds, when it holds one: an
// integer in int32 range that is not -0, so the int32 re-encodes as the same
// eight bytes.
func narrowWord(w uint64) (int32, bool) {
	k, ok := fitsInt32(math.Float64frombits(w))
	return k, ok && w != negZeroBits
}

// widen moves int32 counters to float64 storage, once and for good; on a
// sketch already wide, or a Prototype, it does nothing.
func (cm *CountMin) widen() {
	if cm.counts32 == nil {
		return
	}
	wide := make([]float64, len(cm.counts32))
	for i, v := range cm.counts32 {
		wide[i] = float64(v)
	}
	cm.counts, cm.counts32 = wide, nil
}

// stored returns how many counters the sketch holds: width x depth, or 0 for
// a Prototype.
func (cm *CountMin) stored() int { return len(cm.counts32) + len(cm.counts) }

// at returns counter i as the float64 it stands for.
func (cm *CountMin) at(i int) float64 {
	if cm.counts32 != nil {
		return float64(cm.counts32[i])
	}
	return cm.counts[i]
}

// Widened reports whether the counters are float64: widened by the storage
// rule (see CountMin), or conservative from the start. A Prototype holds no
// counters and is not widened.
func (cm *CountMin) Widened() bool { return cm.counts != nil }

// CounterBytes returns the bytes the counter array occupies: 4 per counter
// while narrow, 8 once widened, 0 for a Prototype.
func (cm *CountMin) CounterBytes() int { return 4*len(cm.counts32) + 8*len(cm.counts) }

// NewCountMinWithError creates a Count-Min sketch sized for additive error
// eps*||x||_1 with failure probability delta: width = ceil(e/eps),
// depth = ceil(ln(1/delta)).
func NewCountMinWithError(r *xrand.Rand, eps, delta float64, opts ...CountMinOption) *CountMin {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("sketch: NewCountMinWithError requires eps, delta in (0,1)")
	}
	width := int(math.Ceil(math.E / eps))
	depth := int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	return NewCountMin(r, width, depth, opts...)
}

// Width returns the number of counters per row.
func (cm *CountMin) Width() int { return cm.width }

// Depth returns the number of rows.
func (cm *CountMin) Depth() int { return cm.depth }

// Size returns the total number of counters (the sketch's space in words).
func (cm *CountMin) Size() int { return cm.width * cm.depth }

// row returns the counter slice of one row of a wide sketch (a view into the
// flat array).
func (cm *CountMin) row(r int) []float64 {
	return cm.counts[r*cm.width : (r+1)*cm.width]
}

// bucket returns the bucket index of item in row. Hash ranges may be rounded
// up to a power of two (multiply-shift), so reduce modulo width.
func (cm *CountMin) bucket(row int, item uint64) int {
	return int(cm.hashes[row].Hash(item) % uint64(cm.width))
}

// indexChunk is how many keys the batched paths hash at a time. At 8 bytes
// per row per key the index matrix is 2 KiB per row — 8 KiB at the daemon's
// depth 4, L1-resident next to the chunk's 4 KiB of keys and deltas — so the
// pass that walks the counters finds the indices where the hash pass left
// them.
const indexChunk = 256

// indexRows returns the index matrix for a batch of n keys over depth rows,
// reusing *buf, and its row stride: row r of the matrix hashing.Rows.Index
// fills is idx[r*stride:], and a batch longer than the stride goes through
// stride keys at a time. Batches shorter than indexChunk get a matrix their
// own size, so a sketch fed one update at a time carries depth words.
func indexRows(buf *[]uint64, depth, n int) (idx []uint64, stride int) {
	stride = min(n, indexChunk)
	if cap(*buf) < depth*stride {
		*buf = make([]uint64, depth*stride)
	}
	return (*buf)[:depth*stride], stride
}

// Update adds delta to the item's count. Negative deltas are allowed only
// when conservative update is disabled. It is a len-1 UpdateBatch.
func (cm *CountMin) Update(item uint64, delta float64) {
	cm.oneKey[0] = item
	cm.oneDelta[0] = delta
	cm.UpdateBatch(cm.oneKey[:], cm.oneDelta[:])
}

// UpdateBatch adds deltas[i] to items[i]'s count for every i, equivalent to
// (and bit-identical with) calling Update item by item: chunk by chunk, the
// row-set kernel hashes the keys into every row's counter indices in one
// pass, then the tracker's counter pass (addAndMin) adds each delta to its
// item's counters. The scratch is reused across calls, so steady-state
// ingestion does not allocate. The slices must have equal length; the sketch
// does not retain them.
func (cm *CountMin) UpdateBatch(items []uint64, deltas []float64) {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("sketch: CountMin.UpdateBatch length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	if len(items) == 0 {
		return
	}
	if cm.conservative {
		// Conservative update is not linear: each item's target depends on its
		// current estimate, so the batch degenerates to the per-item loop.
		for i, item := range items {
			cm.updateConservative(item, deltas[i])
		}
		return
	}
	idx, stride := indexRows(&cm.idxScratch, cm.depth, len(items))
	if cap(cm.est) < stride {
		cm.est = make([]float64, stride)
	}
	for len(items) > 0 {
		n := min(len(items), stride)
		cm.rows.Index(items[:n], idx, stride)
		cm.addAndMin(idx, stride, deltas[:n], cm.est[:n])
		items, deltas = items[n:], deltas[n:]
	}
}

// updateConservative applies one conservative update: the new lower bound for
// the item's count is estimate + delta; raise only the counters below it.
func (cm *CountMin) updateConservative(item uint64, delta float64) {
	if delta < 0 {
		panic("sketch: conservative-update CountMin cannot process negative deltas")
	}
	est := cm.Estimate(item)
	target := est + delta
	for r := 0; r < cm.depth; r++ {
		row := cm.row(r)
		if b := cm.bucket(r, item); row[b] < target {
			row[b] = target
		}
	}
	cm.totalMass += delta
}

// Estimate returns the estimated count of item (the row minimum). For
// non-negative streams this never underestimates.
func (cm *CountMin) Estimate(item uint64) float64 {
	est := math.Inf(1)
	for r := 0; r < cm.depth; r++ {
		if v := cm.at(r*cm.width + cm.bucket(r, item)); v < est {
			est = v
		}
	}
	return est
}

// TotalMass returns the sum of all deltas processed.
func (cm *CountMin) TotalMass() float64 { return cm.totalMass }

// Conservative reports whether the sketch uses conservative update.
// Conservative-update sketches are not linear and cannot be merged.
func (cm *CountMin) Conservative() bool { return cm.conservative }

// InnerProduct estimates the inner product <x, y> of the frequency vectors
// summarized by cm and other. Both sketches must have been created with the
// same dimensions and the same hash functions (use Clone for that); the
// estimate is the minimum over rows of the row-wise counter dot products.
func (cm *CountMin) InnerProduct(other *CountMin) (float64, error) {
	if cm.width != other.width || cm.depth != other.depth {
		return 0, fmt.Errorf("sketch: inner product requires equal dimensions (%dx%d vs %dx%d)",
			cm.depth, cm.width, other.depth, other.width)
	}
	est := math.Inf(1)
	for r := 0; r < cm.depth; r++ {
		var s float64
		for j := r * cm.width; j < (r+1)*cm.width; j++ {
			s += cm.at(j) * other.at(j)
		}
		if s < est {
			est = s
		}
	}
	return est, nil
}

// CompatibleWith returns nil when other was built with the same dimensions,
// hash seed and family as cm, i.e. when the two sketches are views of the
// same linear map and therefore merge exactly. Merge itself only checks
// dimensions (in-process callers derive clones from one prototype, so the
// seeds cannot differ); transports that accept serialized sketches from
// possibly misconfigured peers should call CompatibleWith first.
func (cm *CountMin) CompatibleWith(other *CountMin) error {
	if cm.width != other.width || cm.depth != other.depth {
		return fmt.Errorf("sketch: dimension mismatch: %dx%d vs %dx%d (width x depth)",
			cm.width, cm.depth, other.width, other.depth)
	}
	if cm.seed != other.seed || cm.family != other.family {
		return fmt.Errorf("sketch: hash mismatch: sketches were not built from the same seed/family and cannot be merged")
	}
	return nil
}

// Merge adds the counters of other into cm. The sketches must share hash
// functions (i.e. other must have been created by cm.Clone()); merging
// sketches with different hash functions silently produces garbage, so the
// dimensions are checked and the caller is trusted for the rest, as in
// production Count-Min implementations.
func (cm *CountMin) Merge(other *CountMin) error {
	if cm.width != other.width || cm.depth != other.depth {
		return fmt.Errorf("sketch: cannot merge CountMin of different dimensions")
	}
	if cm.conservative || other.conservative {
		return fmt.Errorf("sketch: conservative-update CountMin sketches are not mergeable")
	}
	cm.combine(other, false)
	cm.totalMass += other.totalMass
	return nil
}

// Sub subtracts the counters of other from cm — the inverse of Merge. Like
// Merge, the sketches must share hash functions (other created by cm.Clone()
// or deserialized from one); only the dimensions are checked.
//
// Linearity is what makes the result meaningful: if cm summarizes stream x
// and other summarizes a prefix (or any sub-stream) y of it, cm after Sub is
// exactly the sketch of x - y. In particular the difference of two snapshots
// of one growing sketch is itself a valid sketch of the updates between
// them, which is how sketchd peers ship deltas instead of full state. When
// every delta is integer-valued (or more generally whenever the counter
// sums are exact in float64), Sub(b) followed by Merge(b) restores cm bit
// for bit.
func (cm *CountMin) Sub(other *CountMin) error {
	if err := cm.subtractable(other); err != nil {
		return err
	}
	cm.combine(other, true)
	cm.totalMass -= other.totalMass
	return nil
}

// combine adds other's counters into cm's, or subtracts them with sub. Two
// narrow sketches combine in int32 until a counter would leave the range;
// from that counter on, and whenever either side is wide, cm is wide. A
// Prototype operand is all zeros and changes nothing.
func (cm *CountMin) combine(other *CountMin, sub bool) {
	if other.stored() == 0 {
		return
	}
	if a, b := cm.counts32, other.counts32; a != nil && b != nil {
		if i := combine32(a, b, sub); i < len(b) {
			cm.widen()
			combineWide(cm.counts[i:], b[i:], sub)
		}
		return
	}
	cm.widen()
	if other.counts32 != nil {
		combineWide(cm.counts, other.counts32, sub)
	} else {
		combineWide(cm.counts, other.counts, sub)
	}
}

// combine32 adds src into dst, or subtracts it with sub, in int32, stopping
// ahead of the first counter whose result would leave the int32 range. It
// returns how many counters it combined.
func combine32(dst, src []int32, sub bool) int {
	dst = dst[:len(src)]
	if sub {
		for i, v := range src {
			s := int64(dst[i]) - int64(v)
			if s != int64(int32(s)) {
				return i
			}
			dst[i] = int32(s)
		}
		return len(src)
	}
	for i, v := range src {
		s := int64(dst[i]) + int64(v)
		if s != int64(int32(s)) {
			return i
		}
		dst[i] = int32(s)
	}
	return len(src)
}

// combineWide adds src into dst, or subtracts it with sub, in float64.
func combineWide[T int32 | float64](dst []float64, src []T, sub bool) {
	if sub {
		for i, v := range src {
			dst[i] -= float64(v)
		}
		return
	}
	for i, v := range src {
		dst[i] += float64(v)
	}
}

// subtractable returns nil when cm - other is defined counter for counter:
// equal dimensions, and both sketches linear.
func (cm *CountMin) subtractable(other *CountMin) error {
	if cm.width != other.width || cm.depth != other.depth {
		return fmt.Errorf("sketch: cannot subtract CountMin of different dimensions")
	}
	if cm.conservative || other.conservative {
		return fmt.Errorf("sketch: conservative-update CountMin sketches are not linear and cannot be subtracted")
	}
	return nil
}

// Scale multiplies every counter (and the total mass) by c. Scale(-1)
// negates the sketch, so Merge(negated clone) is the same subtraction Sub
// performs in one pass. Conservative-update sketches are not linear and
// cannot be scaled.
//
// A narrow sketch stays narrow under a positive integer factor while the
// products fit. Any other factor widens it: a fraction, and also zero or a
// negative factor, whose float64 products include -0 (0 x -1, -5 x 0).
func (cm *CountMin) Scale(c float64) {
	if cm.conservative {
		panic("sketch: conservative-update CountMin sketches are not linear and cannot be scaled")
	}
	cm.totalMass *= c
	lo := 0
	if k, ok := fitsInt32(c); ok && k >= 1 && cm.counts32 != nil {
		lo = len(cm.counts32)
		for i, v := range cm.counts32 {
			p := int64(v) * int64(k)
			if p != int64(int32(p)) {
				lo = i
				break
			}
			cm.counts32[i] = int32(p)
		}
		if lo == len(cm.counts32) {
			return
		}
	}
	cm.widen()
	for i := lo; i < len(cm.counts); i++ {
		cm.counts[i] *= c
	}
}

// Prototype returns cm's shape and hash functions without any counters: the
// template a holder keeps to Clone from, at a few words instead of
// width x depth. It stands for the empty sketch wherever one is only read —
// Clone, CompatibleWith, MarshalBinary (all-zero counters), the base of
// AppendDeltaSince, the argument of Merge or Sub — and any attempt to count
// into it or estimate from it is an index panic rather than a silent write to
// something shared.
func (cm *CountMin) Prototype() *CountMin {
	return &CountMin{
		width:        cm.width,
		depth:        cm.depth,
		hashes:       cm.hashes,
		rows:         cm.rows,
		conservative: cm.conservative,
		seed:         cm.seed,
		family:       cm.family,
	}
}

// Clone returns an empty sketch sharing cm's hash functions, suitable for
// sketching a second stream and then merging or taking inner products. The
// clone gets its own counters and scratch, so clones ingest concurrently.
func (cm *CountMin) Clone() *CountMin {
	out := cm.Prototype()
	out.allocate()
	return out
}

// Copy returns a deep copy of cm: same hash functions, its own counters
// holding the current values in the same storage. It is the snapshot idiom
// the delta math uses (retain a Copy, keep ingesting, Sub the copy later).
// The Copy of a Prototype is an empty sketch.
func (cm *CountMin) Copy() *CountMin {
	if cm.stored() == 0 {
		return cm.Clone()
	}
	out := cm.Prototype()
	out.counts32, out.counts = slices.Clone(cm.counts32), slices.Clone(cm.counts)
	out.totalMass = cm.totalMass
	return out
}

// CounterData returns the flat row-major counter array (row r at
// [r*width, (r+1)*width)) as float64. For a widened sketch it is the live
// backing store, which callers must not modify; int32 counters cannot be
// aliased as float64, so a narrow sketch returns a fresh copy.
func (cm *CountMin) CounterData() []float64 {
	if cm.counts32 == nil {
		return cm.counts
	}
	out := make([]float64, len(cm.counts32))
	for i, v := range cm.counts32 {
		out[i] = float64(v)
	}
	return out
}

// RowBucket exposes the bucket an item maps to in a given row; used by the
// core package to materialize the sketch as an explicit sparse matrix.
func (cm *CountMin) RowBucket(row int, item uint64) int {
	if row < 0 || row >= cm.depth {
		panic("sketch: RowBucket row out of range")
	}
	return cm.bucket(row, item)
}
