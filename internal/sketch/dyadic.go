package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/stream"
	"repro/internal/xrand"
)

// Dyadic maintains one Count-Min sketch per dyadic level of the universe
// [0, 2^logU). Level l summarizes the counts of dyadic intervals of length
// 2^l. This is the structure of [CM03b, CM04] that answers range-sum
// queries, finds heavy hitters without enumerating the universe, and
// computes approximate quantiles — the "identify the elements mapped to
// heavy buckets" step of the survey made efficient.
type Dyadic struct {
	logU     int
	levels   []*CountMin // levels[l] sketches prefixes of length 2^l
	universe uint64
	// keyScratch is the reusable shifted-prefix column for UpdateBatch (zero
	// allocations steady-state). Writes are single-goroutine; queries never
	// touch it.
	keyScratch []uint64
}

// NewDyadic creates a dyadic Count-Min hierarchy over the universe
// [0, 2^logU), with each level's sketch having the given width and depth.
func NewDyadic(r *xrand.Rand, logU, width, depth int) *Dyadic {
	if logU < 1 || logU > 63 {
		panic(fmt.Sprintf("sketch: NewDyadic requires 1 <= logU <= 63, got %d", logU))
	}
	d := &Dyadic{
		logU:     logU,
		levels:   make([]*CountMin, logU+1),
		universe: 1 << uint(logU),
	}
	for l := 0; l <= logU; l++ {
		d.levels[l] = NewCountMin(r, width, depth)
	}
	return d
}

// NewDyadicForUniverse creates a dyadic hierarchy large enough to cover the
// universe [0, universe), rounding the number of levels up to the next power
// of two.
func NewDyadicForUniverse(r *xrand.Rand, universe uint64, width, depth int) *Dyadic {
	logU := log2Ceil(universe)
	if logU < 1 {
		logU = 1
	}
	return NewDyadic(r, logU, width, depth)
}

// Universe returns the size of the item universe (2^logU).
func (d *Dyadic) Universe() uint64 { return d.universe }

// Update adds delta to item's count at every level of the hierarchy.
func (d *Dyadic) Update(item uint64, delta float64) {
	if item >= d.universe {
		panic(fmt.Sprintf("sketch: Dyadic item %d outside universe %d", item, d.universe))
	}
	for l := 0; l <= d.logU; l++ {
		d.levels[l].Update(item>>uint(l), delta)
	}
}

// UpdateBatch adds deltas[i] to items[i]'s count at every level, equivalent
// to (and bit-identical with) per-item Update calls: each level receives the
// whole prefix column through its Count-Min's batched path. Levels own
// disjoint counters, so running level-by-level instead of item-by-item
// reorders nothing within any one counter. The shifted-prefix column is
// reused across calls (zero allocations steady-state beyond the levels' own
// scratch). The slices must have equal length.
func (d *Dyadic) UpdateBatch(items []uint64, deltas []float64) {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("sketch: Dyadic.UpdateBatch length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	if len(items) == 0 {
		return
	}
	for _, item := range items {
		if item >= d.universe {
			panic(fmt.Sprintf("sketch: Dyadic item %d outside universe %d", item, d.universe))
		}
	}
	if cap(d.keyScratch) < len(items) {
		d.keyScratch = make([]uint64, len(items))
	}
	prefixes := d.keyScratch[:len(items)]
	copy(prefixes, items)
	d.levels[0].UpdateBatch(prefixes, deltas)
	for l := 1; l <= d.logU; l++ {
		for i := range prefixes {
			prefixes[i] >>= 1
		}
		d.levels[l].UpdateBatch(prefixes, deltas)
	}
}

// Estimate returns the estimated count of a single item.
func (d *Dyadic) Estimate(item uint64) float64 {
	return d.levels[0].Estimate(item)
}

// prefixEstimate returns the estimated count of the dyadic interval
// [p*2^l, (p+1)*2^l).
func (d *Dyadic) prefixEstimate(level int, prefix uint64) float64 {
	return d.levels[level].Estimate(prefix)
}

// RangeSum estimates the total count of items in [lo, hi] by decomposing the
// range into at most 2*logU dyadic intervals and summing their estimates.
func (d *Dyadic) RangeSum(lo, hi uint64) float64 {
	if lo > hi || hi >= d.universe {
		panic(fmt.Sprintf("sketch: RangeSum invalid range [%d,%d] in universe %d", lo, hi, d.universe))
	}
	var sum float64
	// Decompose [lo, hi] greedily into maximal dyadic intervals.
	for lo <= hi {
		// Largest level such that lo is aligned and the interval fits.
		l := 0
		for l < d.logU {
			size := uint64(1) << uint(l+1)
			if lo%size != 0 || lo+size-1 > hi {
				break
			}
			l++
		}
		sum += d.prefixEstimate(l, lo>>uint(l))
		step := uint64(1) << uint(l)
		if lo+step < lo { // overflow guard
			break
		}
		lo += step
	}
	return sum
}

// HeavyHitters returns every item whose estimated count is at least
// phi * total mass. It descends the dyadic tree, expanding only prefixes
// whose estimated mass reaches the threshold, so the work is proportional to
// the number of heavy prefixes rather than the universe size. The returned
// counts are the Count-Min estimates (never underestimates for insertion-only
// streams), sorted by decreasing count.
func (d *Dyadic) HeavyHitters(phi float64) []stream.ItemCount {
	total := d.levels[0].TotalMass()
	threshold := phi * total
	if threshold <= 0 {
		threshold = 1e-12 // expand everything non-empty but avoid zero-mass explosion
	}
	var out []stream.ItemCount
	// Depth-first descent from the root level.
	type node struct {
		level  int
		prefix uint64
	}
	stack := []node{{level: d.logU, prefix: 0}}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		est := d.prefixEstimate(n.level, n.prefix)
		if est < threshold {
			continue
		}
		if n.level == 0 {
			out = append(out, stream.ItemCount{Item: n.prefix, Count: int64(est + 0.5)})
			continue
		}
		stack = append(stack,
			node{level: n.level - 1, prefix: n.prefix * 2},
			node{level: n.level - 1, prefix: n.prefix*2 + 1},
		)
	}
	stream.SortItemCounts(out)
	return out
}

// Quantile returns an item q such that the estimated rank of q (number of
// stream elements with value <= q) is approximately phi * total. It binary
// searches the dyadic structure using prefix sums.
func (d *Dyadic) Quantile(phi float64) uint64 {
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	target := phi * d.levels[0].TotalMass()
	// Walk down from the root choosing left/right child by accumulated mass.
	var prefix uint64
	var acc float64
	for l := d.logU - 1; l >= 0; l-- {
		left := prefix * 2
		leftMass := d.prefixEstimate(l, left)
		if acc+leftMass >= target {
			prefix = left
		} else {
			acc += leftMass
			prefix = left + 1
		}
	}
	return prefix
}

// TotalMass returns the total mass of the stream seen so far.
func (d *Dyadic) TotalMass() float64 { return d.levels[0].TotalMass() }

// SizeCounters returns the total number of counters across all levels.
func (d *Dyadic) SizeCounters() int {
	s := 0
	for _, cm := range d.levels {
		s += cm.Size()
	}
	return s
}

// LogUniverse returns the number of dyadic levels minus one.
func (d *Dyadic) LogUniverse() int { return d.logU }

// Clone returns an empty hierarchy whose level sketches share d's hash
// functions, suitable for sketching a disjoint part of the stream and merging
// back — the same clone/merge law as the flat sketches, applied level-wise.
func (d *Dyadic) Clone() *Dyadic {
	out := &Dyadic{
		logU:     d.logU,
		levels:   make([]*CountMin, len(d.levels)),
		universe: d.universe,
	}
	for l, cm := range d.levels {
		out.levels[l] = cm.Clone()
	}
	return out
}

// CompatibleWith returns nil when other was built with the same universe and
// every level shares d's dimensions, hash seed and family — the precondition
// for an exact merge. Like the flat sketches' CompatibleWith, this is the
// check transports run on serialized hierarchies from possibly misconfigured
// peers; Merge itself trusts in-process callers beyond the dimension check.
func (d *Dyadic) CompatibleWith(other *Dyadic) error {
	if d.logU != other.logU {
		return fmt.Errorf("sketch: dyadic universe mismatch: 2^%d vs 2^%d", d.logU, other.logU)
	}
	for l := range d.levels {
		if err := d.levels[l].CompatibleWith(other.levels[l]); err != nil {
			return fmt.Errorf("sketch: dyadic level %d: %w", l, err)
		}
	}
	return nil
}

// Merge adds other's counters into d, level by level. Each level is a linear
// Count-Min, so the merged hierarchy answers every range sum, quantile and
// heavy-hitter query exactly as if d had processed both streams itself. The
// universes and per-level dimensions are validated up front so a mismatch
// cannot leave d partially merged.
func (d *Dyadic) Merge(other *Dyadic) error {
	if d.logU != other.logU {
		return fmt.Errorf("sketch: cannot merge dyadic hierarchies over different universes (2^%d vs 2^%d)", d.logU, other.logU)
	}
	for l := range d.levels {
		if d.levels[l].Width() != other.levels[l].Width() || d.levels[l].Depth() != other.levels[l].Depth() {
			return fmt.Errorf("sketch: cannot merge dyadic level %d of different dimensions", l)
		}
	}
	for l := range d.levels {
		if err := d.levels[l].Merge(other.levels[l]); err != nil {
			return fmt.Errorf("sketch: merging dyadic level %d: %w", l, err)
		}
	}
	return nil
}

// Copy returns a deep copy of the hierarchy (each level a Copy of d's).
func (d *Dyadic) Copy() *Dyadic {
	out := &Dyadic{
		logU:     d.logU,
		levels:   make([]*CountMin, len(d.levels)),
		universe: d.universe,
	}
	for l, cm := range d.levels {
		out.levels[l] = cm.Copy()
	}
	return out
}

// Sub subtracts other's counters from d, level by level — the inverse of
// Merge, validated the same way up front so a mismatch cannot leave d
// partially subtracted. The difference of two snapshots of one growing
// hierarchy is itself a valid hierarchy of the updates between them.
func (d *Dyadic) Sub(other *Dyadic) error {
	if d.logU != other.logU {
		return fmt.Errorf("sketch: cannot subtract dyadic hierarchies over different universes (2^%d vs 2^%d)", d.logU, other.logU)
	}
	for l := range d.levels {
		if d.levels[l].Width() != other.levels[l].Width() || d.levels[l].Depth() != other.levels[l].Depth() {
			return fmt.Errorf("sketch: cannot subtract dyadic level %d of different dimensions", l)
		}
	}
	for l := range d.levels {
		if err := d.levels[l].Sub(other.levels[l]); err != nil {
			return fmt.Errorf("sketch: subtracting dyadic level %d: %w", l, err)
		}
	}
	return nil
}

// Scale multiplies every level's counters by c (Scale(-1) negates the
// hierarchy, so a negated clone merges as a subtraction).
func (d *Dyadic) Scale(c float64) {
	for _, cm := range d.levels {
		cm.Scale(c)
	}
}

// Column partitioning (see columns.go) ---------------------------------------

// ColumnShape returns the hierarchy's column-partition geometry: every
// level's rows stacked level-major — (logU+1)*depth rows of width columns
// (NewDyadic gives every level the same dimensions).
func (d *Dyadic) ColumnShape() ColumnShape {
	return ColumnShape{Rows: len(d.levels) * d.levels[0].depth, Width: d.levels[0].width}
}

// ScatterColumns routes a key/delta batch level by level: level l hashes the
// keys' length-2^l prefixes exactly as UpdateBatch does, and each row's
// increment goes to the shard owning its bucket's column. Items outside the
// universe panic, mirroring UpdateBatch.
func (d *Dyadic) ScatterColumns(items []uint64, deltas []float64, sc *ColumnScatter) {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("sketch: Dyadic.ScatterColumns length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	for _, item := range items {
		if item >= d.universe {
			panic(fmt.Sprintf("sketch: Dyadic item %d outside universe %d", item, d.universe))
		}
	}
	depth := d.levels[0].depth
	prefixes := sc.keyScratch(len(items))
	copy(prefixes, items)
	for l := 0; l <= d.logU; l++ {
		if l > 0 {
			for i := range prefixes {
				prefixes[i] >>= 1
			}
		}
		d.levels[l].scatter(prefixes, deltas, sc, l*depth, false)
	}
	for _, dl := range deltas {
		sc.Mass += dl
	}
}

// ConcatColumns overwrites every level's counters from per-shard column
// slices (level-major: each level's rows in order) and sets each
// level's total mass to the summed shard masses — every level sees every
// delta once, so the per-level masses are all the stream's total.
func (d *Dyadic) ConcatColumns(slices [][]float64, mass float64) error {
	shape := d.ColumnShape()
	depth := d.levels[0].depth
	for j, s := range slices {
		lo, hi := shape.Range(j, len(slices))
		w := hi - lo
		if len(s) != shape.Rows*w {
			return fmt.Errorf("sketch: dyadic column slice %d holds %d counters, want %d (%d rows x %d columns)",
				j, len(s), shape.Rows*w, shape.Rows, w)
		}
		for rr := 0; rr < shape.Rows; rr++ {
			cm := d.levels[rr/depth]
			r := rr % depth
			copy(cm.counts[r*cm.width+lo:r*cm.width+hi], s[rr*w:(rr+1)*w])
		}
	}
	for _, cm := range d.levels {
		cm.totalMass = mass
	}
	return nil
}

// HeavyHitterTracker combines a Count-Min sketch with a candidate heap so
// that heavy hitters can be reported after a single pass without a second
// pass over the stream and without knowing the universe. This is the
// practical structure used by the "heavy bucket" narrative of the survey:
// the sketch supplies estimated counts, the heap remembers which items
// currently look heavy.
type HeavyHitterTracker struct {
	cm    *CountMin
	k     int
	cands *CandidateSet
	// scoresLow is the floor-gate latch of UpdateBatch: true while every
	// stored candidate score is a lower bound on that item's current estimate.
	// It holds as long as only non-negative deltas have touched the counters
	// since the scores were set, so anything that can lower a counter clears
	// it (a negative or NaN delta, Sub, Scale, AbsorbCountMin, ConcatColumns)
	// and only a full re-score (Merge, UnmarshalBinary) sets it again.
	scoresLow bool
	// idx and est are UpdateBatch's scratch: the chunk's index matrix (see
	// indexRows) and the estimate each item of the chunk had right after its
	// own update. Allocated on the first update, so trackers that only merge
	// never carry them.
	idx []uint64
	est []float64
	// unionKeys is Merge's scratch for the candidate union, and candScores
	// AbsorbCandidates' for the estimates it offers.
	unionKeys  []uint64
	candScores []float64
	// oneKey/oneDelta back the per-item Update, which is a len-1 UpdateBatch.
	oneKey   [1]uint64
	oneDelta [1]float64
}

// NewHeavyHitterTracker creates a tracker that keeps the k items with the
// largest estimated counts, backed by a Count-Min of the given dimensions.
func NewHeavyHitterTracker(r *xrand.Rand, width, depth, k int) *HeavyHitterTracker {
	if k < 1 {
		panic("sketch: NewHeavyHitterTracker requires k >= 1")
	}
	return newHeavyHitterTracker(NewCountMin(r, width, depth), k)
}

// newHeavyHitterTracker wraps an existing (linear) Count-Min in an empty
// tracker; the shared construction path of NewHeavyHitterTracker, Clone and
// UnmarshalBinary. An empty store has no score to go stale, so the latch
// starts set.
func newHeavyHitterTracker(cm *CountMin, k int) *HeavyHitterTracker {
	return &HeavyHitterTracker{cm: cm, k: k, cands: NewCandidateSet(k), scoresLow: true}
}

// Update processes one update and refreshes the candidate heap. It is a
// len-1 UpdateBatch.
func (t *HeavyHitterTracker) Update(item uint64, delta float64) {
	t.oneKey[0] = item
	t.oneDelta[0] = delta
	t.UpdateBatch(t.oneKey[:], t.oneDelta[:])
}

// UpdateBatch processes the updates in order, equivalent to (and
// bit-identical with, counters, total mass and candidate heap alike) a loop
// of "add delta to the item's counters, estimate the item, offer it to the
// candidate store". Only the heap decision is inherently per-item — it must
// see the sketch state after updates 0..i and no later — and the kernel
// keeps exactly that while batching everything around it. Each chunk of
// indexChunk updates goes through three steps:
//
//  1. Hash once. The row-set kernel turns the chunk's keys into a matrix of
//     flat counter indices, every row in one pass.
//  2. Counter pass (addAndMin). Item by item, delta i is added to the item's
//     depth counters and the minimum of the values just written, taken with
//     the same `<` Estimate uses, is kept in est[i]. That minimum is
//     Estimate(item) after updates 0..i, so nothing is hashed or read twice.
//     Every counter still receives its deltas in stream order, and the mass
//     is summed in stream order. The loop makes no calls and touches no heap.
//  3. Candidate pass. In item order again, est[i] is offered to the store.
//     Running it after the whole chunk's counter pass instead of interleaved
//     changes nothing: Offer reads and writes the store only, never a
//     counter, and est[i] was fixed in step 2 — so the store sees the same
//     (key, score) sequence and the counters the same adds.
//
// The candidate pass skips most items through the floor gate. Say the store
// is full, the estimate is at or below the store's minimum score (its floor),
// and every stored score is a lower bound on its item's current estimate (the
// scoresLow latch). Were the item stored, its score would lie between the
// floor and the estimate, so all three are equal and re-scoring it moves
// nothing; were it not, Offer would turn it away. Either way the store stays
// as it is, so the key lookup is skipped. The first delta that is not >= 0
// clears the latch for its own item and every later one; with the latch
// cleared every item pays the lookup, as it always did: the gate is a
// shortcut, never a condition of exactness.
//
// The slices must have equal length; the tracker does not retain them.
func (t *HeavyHitterTracker) UpdateBatch(items []uint64, deltas []float64) {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("sketch: HeavyHitterTracker.UpdateBatch length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	cm, cands := t.cm, t.cands
	idx, stride := indexRows(&t.idx, cm.depth, len(items))
	if cap(t.est) < stride {
		t.est = make([]float64, stride)
	}
	for len(items) > 0 {
		n := min(len(items), stride)
		est := t.est[:n]
		cm.rows.Index(items[:n], idx, stride)
		mass, unsigned := addAndMin(cm.counts, idx, stride, deltas[:n], est, cm.totalMass)
		cm.totalMass = mass
		gated := 0
		if t.scoresLow {
			gated = unsigned
			t.scoresLow = unsigned == n
		}
		floor, full := cands.Floor()
		for i, e := range est[:gated] {
			if full && e <= floor {
				continue
			}
			cands.Offer(items[i], e)
			floor, full = cands.Floor() // only an Offer moves it
		}
		for i := gated; i < n; i++ {
			cands.Offer(items[i], est[i])
		}
		items, deltas = items[n:], deltas[n:]
	}
}

// addAndMin is the counter pass of UpdateBatch over one chunk: for every i it
// adds deltas[i] to the counters idx[r*stride+i] of each row r and stores the
// minimum of the values written in est[i] — folded with `<` from +Inf, as
// Estimate folds the rows. It returns the mass with the deltas added in
// order, and how many leading deltas are >= 0 (len(deltas) when all are; NaN
// is not).
//
// The daemon's depth of 4 gets its own loop. The index rows are sliced to the
// chunk, so the only bounds checks left are the counter accesses themselves,
// and the four values stay in registers from the add to the minimum. The
// minimum is the builtin's, a branch-free instruction sequence where the fold
// would mispredict about once per item. The two differ only around NaN (the
// builtin propagates one, the fold steps over it) and signed zeros (the
// builtin orders -0 below +0, the fold keeps whichever came first), and both
// cases leave the builtin's result NaN or zero: those items, and only those,
// are folded again by definition.
func addAndMin(counts []float64, idx []uint64, stride int, deltas, est []float64, mass float64) (float64, int) {
	n := len(deltas)
	est = est[:n]
	unsigned := n
	if len(idx) == 4*stride {
		i0, i1, i2, i3 := idx[:n], idx[stride:][:n], idx[2*stride:][:n], idx[3*stride:][:n]
		for i, d := range deltas {
			v0 := counts[i0[i]] + d
			counts[i0[i]] = v0
			v1 := counts[i1[i]] + d
			counts[i1[i]] = v1
			v2 := counts[i2[i]] + d
			counts[i2[i]] = v2
			v3 := counts[i3[i]] + d
			counts[i3[i]] = v3
			e := min(v0, v1, v2, v3)
			if e == 0 || e != e {
				e = math.Inf(1)
				for _, v := range [...]float64{v0, v1, v2, v3} {
					if v < e {
						e = v
					}
				}
			}
			est[i] = e
			mass += d
			if !(d >= 0) && i < unsigned {
				unsigned = i
			}
		}
		return mass, unsigned
	}
	for i, d := range deltas {
		e := math.Inf(1)
		for j := i; j < len(idx); j += stride {
			v := counts[idx[j]] + d
			counts[idx[j]] = v
			if v < e {
				e = v
			}
		}
		est[i] = e
		mass += d
		if !(d >= 0) && i < unsigned {
			unsigned = i
		}
	}
	return mass, unsigned
}

// Estimate returns the sketch estimate for an item.
func (t *HeavyHitterTracker) Estimate(item uint64) float64 { return t.cm.Estimate(item) }

// K returns the candidate capacity (the number of items tracked for TopK).
func (t *HeavyHitterTracker) K() int { return t.k }

// Width returns the backing Count-Min's counters per row.
func (t *HeavyHitterTracker) Width() int { return t.cm.Width() }

// Depth returns the backing Count-Min's number of rows.
func (t *HeavyHitterTracker) Depth() int { return t.cm.Depth() }

// TotalMass returns the sum of all deltas processed by the backing sketch.
func (t *HeavyHitterTracker) TotalMass() float64 { return t.cm.TotalMass() }

// Backing exposes the tracker's Count-Min sketch. The returned sketch shares
// state with the tracker: callers may read counters (e.g. to run sparse
// recovery over a snapshot) but must not update through it, or the candidate
// heap will go stale.
func (t *HeavyHitterTracker) Backing() *CountMin { return t.cm }

// CompatibleWith returns nil when other was built from the same dimensions,
// hash seed and family as t — the precondition for an exact merge. Merge
// itself, like CountMin.Merge, only checks dimensions and trusts in-process
// callers; transports receiving sketches from possibly misconfigured peers
// should check compatibility first.
func (t *HeavyHitterTracker) CompatibleWith(other *HeavyHitterTracker) error {
	return t.cm.CompatibleWith(other.cm)
}

// AbsorbCountMin folds a bare Count-Min — typically a peer's serialized
// counters, without candidate metadata — into the tracker's backing sketch.
// Existing candidates re-score against the merged counters at report time,
// so estimates afterwards equal those of a tracker that saw both streams;
// items tracked only by the peer are not learned (ship the full tracker
// encoding to keep them). Unlike Merge, the hash seeds are verified, since
// the bytes usually crossed a process boundary.
func (t *HeavyHitterTracker) AbsorbCountMin(cm *CountMin) error {
	if err := t.cm.CompatibleWith(cm); err != nil {
		return err
	}
	t.scoresLow = false
	return t.cm.Merge(cm)
}

// Clone returns an empty tracker whose backing Count-Min shares t's hash
// functions, suitable for sketching a disjoint part of the stream and
// merging back (the sharded-ingestion pattern of internal/engine).
func (t *HeavyHitterTracker) Clone() *HeavyHitterTracker {
	return newHeavyHitterTracker(t.cm.Clone(), t.k)
}

// Prototype returns an empty tracker over the backing Count-Min's Prototype:
// shape, hash functions and k, no counters. See CountMin.Prototype for what
// it can stand in for; it is what the engine and the daemon hold to clone
// replicas from and to cut deltas against.
func (t *HeavyHitterTracker) Prototype() *HeavyHitterTracker {
	return newHeavyHitterTracker(t.cm.Prototype(), t.k)
}

// Merge folds other into t. The Count-Min counters add exactly (linearity),
// so estimates after the merge equal those of a single tracker fed both
// streams. The candidate sets are unioned and re-scored against the merged
// counters (t's in heap order, then other's), keeping the k largest: a
// candidate heavy anywhere stays a candidate, which is the standard
// distributed top-k reduction.
func (t *HeavyHitterTracker) Merge(other *HeavyHitterTracker) error {
	if err := t.cm.Merge(other.cm); err != nil {
		return err
	}
	t.unionKeys = other.cands.AppendItems(t.cands.AppendItems(t.unionKeys[:0]))
	t.cands.Reset()
	t.AbsorbCandidates(t.unionKeys)
	t.scoresLow = true
	return nil
}

// Copy returns a deep copy of the tracker: the backing Count-Min's current
// counters plus the current candidate set (re-scored lazily at report
// time, like every other tracker read).
func (t *HeavyHitterTracker) Copy() *HeavyHitterTracker {
	return &HeavyHitterTracker{cm: t.cm.Copy(), k: t.k, cands: t.cands.Copy(), scoresLow: t.scoresLow}
}

// Sub subtracts other's backing counters from t — the inverse of Merge at
// the counter level. The candidate set is left as t's own: candidates are
// re-scored against the counters at report time, so after a subtraction the
// reported counts reflect the difference stream. This is what lets a
// sketchd replicator compute "everything since the last shipped snapshot"
// as one tracker-shaped delta: the counters are exactly the delta stream's,
// and the candidate items ride along so the receiving peer can learn them.
func (t *HeavyHitterTracker) Sub(other *HeavyHitterTracker) error {
	t.scoresLow = false
	return t.cm.Sub(other.cm)
}

// Scale multiplies the backing counters by c (candidates re-score against
// the scaled counters at report time).
func (t *HeavyHitterTracker) Scale(c float64) {
	t.scoresLow = false
	t.cm.Scale(c)
}

// TopK returns the current candidate set sorted by decreasing estimate.
// Candidates are re-scored against the sketch at report time, so the counts
// reflect the full stream seen so far (the stored heap scores can be stale:
// they date from each item's last update) and agree with what a merge of
// sharded trackers would report for the same candidate.
func (t *HeavyHitterTracker) TopK() []stream.ItemCount {
	out := make([]stream.ItemCount, 0, t.cands.Len())
	for _, c := range t.cands.heap {
		out = append(out, stream.ItemCount{Item: c.item, Count: int64(t.cm.Estimate(c.item) + 0.5)})
	}
	stream.SortItemCounts(out)
	return out
}

// HeavyHitters returns candidates whose estimate reaches phi * total mass,
// re-scored against the sketch at report time (see TopK).
func (t *HeavyHitterTracker) HeavyHitters(phi float64) []stream.ItemCount {
	threshold := phi * t.cm.TotalMass()
	var out []stream.ItemCount
	for _, c := range t.cands.heap {
		if est := t.cm.Estimate(c.item); est >= threshold {
			out = append(out, stream.ItemCount{Item: c.item, Count: int64(est + 0.5)})
		}
	}
	stream.SortItemCounts(out)
	return out
}

// SpaceCounters returns the number of counters used by the backing sketch.
func (t *HeavyHitterTracker) SpaceCounters() int { return t.cm.Size() }

// Column partitioning (see columns.go) ---------------------------------------

// ColumnShape returns the backing Count-Min's column-partition geometry.
func (t *HeavyHitterTracker) ColumnShape() ColumnShape { return t.cm.ColumnShape() }

// ScatterColumns routes a key/delta batch exactly as the backing Count-Min
// does, and additionally routes every key down the candidate lane to the
// shard owning its row-0 bucket, paired with that bucket's shard-local index.
// The owning shard scores the key from its own row-0 counter — the same
// never-underestimating upper bound the tracker's heap scores with — so
// partitioned candidate tracking needs no cross-shard reads. Candidate
// *selection* is a heuristic in every mode (replica merges already union and
// re-score per-shard heaps); only the counters are bit-identical across
// modes.
func (t *HeavyHitterTracker) ScatterColumns(items []uint64, deltas []float64, sc *ColumnScatter) {
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("sketch: HeavyHitterTracker.ScatterColumns length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	t.cm.scatter(items, deltas, sc, 0, true)
	for _, dl := range deltas {
		sc.Mass += dl
	}
}

// AppendColumnSlice appends the backing Count-Min's slice for one shard.
func (t *HeavyHitterTracker) AppendColumnSlice(dst []float64, shard, shards int) []float64 {
	return t.cm.AppendColumnSlice(dst, shard, shards)
}

// ConcatColumns reassembles the backing Count-Min from per-shard column
// slices. Candidates are delivered separately via AbsorbCandidates once the
// counters are in place, so they score against the full sketch.
func (t *HeavyHitterTracker) ConcatColumns(slices [][]float64, mass float64) error {
	t.scoresLow = false
	return t.cm.ConcatColumns(slices, mass)
}

// ColumnMass returns the backing sketch's total mass.
func (t *HeavyHitterTracker) ColumnMass() float64 { return t.cm.TotalMass() }

// CandidateItems returns the tracked candidate keys (unordered).
func (t *HeavyHitterTracker) CandidateItems() []uint64 {
	return t.cands.AppendItems(make([]uint64, 0, t.cands.Len()))
}

// CandidateCap returns the candidate capacity k.
func (t *HeavyHitterTracker) CandidateCap() int { return t.k }

// AbsorbCandidates offers every key to the candidate heap scored by the
// current sketch estimate — the union-and-re-score reduction Merge applies,
// exposed for callers that carry candidate keys outside a tracker (the
// engine's partitioned snapshot assembly).
func (t *HeavyHitterTracker) AbsorbCandidates(items []uint64) {
	if cap(t.candScores) < len(items) {
		t.candScores = make([]float64, len(items))
	}
	scores := t.candScores[:len(items)]
	t.cm.EstimateBatch(items, scores)
	for i, item := range items {
		t.cands.Offer(item, scores[i])
	}
}

// log2Ceil returns ceil(log2(x)) for x >= 1.
func log2Ceil(x uint64) int {
	if x <= 1 {
		return 0
	}
	return 64 - bits.LeadingZeros64(x-1)
}
