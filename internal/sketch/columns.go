package sketch

import (
	"fmt"
	"slices"
)

// Column partitioning --------------------------------------------------------
//
// A hashing sketch is a matrix of independent per-bucket counters, so beyond
// replication there is a second way to spread it across workers: split the
// *columns*. Shard j of n owns columns [j*W/n, (j+1)*W/n) of every row — with
// the flat row-major layout a shard's columns are contiguous per row — and an
// update's row-r write goes to whichever shard owns bucket h_r(item). The
// shards together hold exactly one copy of the logical sketch (memory ~1x
// instead of n x), and reassembly is pure concatenation: copy each shard's
// column slice back into place and the result is counter-for-counter the
// sketch a single-threaded run would have produced.
//
// The types below are the sketch-side half of that contract, consumed by
// internal/engine's partition mode: ColumnShape names the geometry and the
// bucket->shard map, ColumnScatter turns a key/delta batch into per-shard
// scatter columns (hashing through the same row-set kernel UpdateBatch uses),
// and each family implements ColumnSketch to route, slice and reassemble its
// own counters.

// ColumnShape is the column-partition geometry of a sketch family: Rows rows
// of Width columns each. For the flat families Rows is the depth; for the
// dyadic hierarchy it is (logU+1)*depth, with every level's rows stacked in
// level-major order. The partition axis is always the Width.
type ColumnShape struct {
	Rows  int
	Width int
}

// Size returns the total number of counters.
func (s ColumnShape) Size() int { return s.Rows * s.Width }

// Range returns the half-open global column range [lo, hi) owned by shard j
// of n. The ranges tile [0, Width) contiguously and differ in size by at most
// one column; with n > Width the surplus shards own empty ranges.
func (s ColumnShape) Range(j, n int) (lo, hi int) {
	return j * s.Width / n, (j + 1) * s.Width / n
}

// ShardOf returns the shard (of n) owning a global column index — the exact
// inverse of Range: Range(ShardOf(b, n), n) always brackets b.
func (s ColumnShape) ShardOf(bucket, n int) int {
	return ((bucket+1)*n - 1) / s.Width
}

// ColumnScatter routes one key/delta batch to column shards: Idx[j]/Delta[j]
// accumulate the shard-local flat counter indices and deltas shard j must
// add, Mass accumulates the batch's total delta mass (attributed to shard 0,
// so the shard masses sum to the stream's), and CandKeys[j]/CandIdx[j] carry
// the candidate lane of heavy-hitter trackers: each key routed to the shard
// owning its row-0 bucket, paired with that bucket's shard-local index so
// the shard can score the key from its own counters.
//
// A scatter belongs to one producer: the hash scratch inside it is what lets
// many producers route batches through one shared read-only prototype
// concurrently. The output slices are exported so the consumer can hand them
// off to shard queues wholesale and install recycled buffers in their place.
type ColumnScatter struct {
	shape ColumnShape
	lo    []int // per-shard column range starts
	width []int // per-shard slice widths (hi - lo)

	Idx      [][]uint32
	Delta    [][]float64
	Mass     float64
	CandKeys [][]uint64
	CandIdx  [][]uint32

	// Reusable hash scratch for the family's ScatterColumns (zero allocations
	// steady-state): the index matrix (see indexRows), a chunk's signs, and
	// the dyadic hierarchy's shifted keys.
	idx   []uint64
	signs []float64
	keys  []uint64
}

// NewColumnScatter builds a scatter for the given geometry and shard count.
// It panics when a shard-local index could overflow the uint32 scatter
// encoding — Rows * max slice width must stay below 2^32, which every
// realistic sketch satisfies by orders of magnitude.
func NewColumnScatter(shape ColumnShape, shards int) *ColumnScatter {
	if shards < 1 {
		panic(fmt.Sprintf("sketch: NewColumnScatter requires shards >= 1 (got %d)", shards))
	}
	sc := &ColumnScatter{
		shape:    shape,
		lo:       make([]int, shards),
		width:    make([]int, shards),
		Idx:      make([][]uint32, shards),
		Delta:    make([][]float64, shards),
		CandKeys: make([][]uint64, shards),
		CandIdx:  make([][]uint32, shards),
	}
	for j := 0; j < shards; j++ {
		lo, hi := shape.Range(j, shards)
		sc.lo[j], sc.width[j] = lo, hi-lo
		if sc.width[j] > 0 && uint64(shape.Rows)*uint64(sc.width[j]) > 1<<32 {
			panic(fmt.Sprintf("sketch: column shard too large for scatter indices (%d rows x %d columns)",
				shape.Rows, sc.width[j]))
		}
	}
	return sc
}

// Shards returns the shard count the scatter routes to.
func (sc *ColumnScatter) Shards() int { return len(sc.lo) }

// Shape returns the geometry the scatter was built for.
func (sc *ColumnScatter) Shape() ColumnShape { return sc.shape }

// Reset truncates every output column and zeroes the mass, keeping the
// backing arrays for reuse.
func (sc *ColumnScatter) Reset() {
	for j := range sc.Idx {
		sc.Idx[j] = sc.Idx[j][:0]
		sc.Delta[j] = sc.Delta[j][:0]
		sc.CandKeys[j] = sc.CandKeys[j][:0]
		sc.CandIdx[j] = sc.CandIdx[j][:0]
	}
	sc.Mass = 0
}

// route appends one counter increment: row-major position (row, bucket) of
// the logical sketch, translated to the owning shard's local flat index.
func (sc *ColumnScatter) route(row int, bucket uint64, delta float64) {
	j := ((int(bucket)+1)*len(sc.lo) - 1) / sc.shape.Width
	local := uint32(row*sc.width[j] + int(bucket) - sc.lo[j])
	sc.Idx[j] = append(sc.Idx[j], local)
	sc.Delta[j] = append(sc.Delta[j], delta)
}

// routeCandidate appends one candidate-lane entry for the shard owning the
// key's row-0 bucket.
func (sc *ColumnScatter) routeCandidate(key uint64, bucket uint64) {
	j := ((int(bucket)+1)*len(sc.lo) - 1) / sc.shape.Width
	sc.CandKeys[j] = append(sc.CandKeys[j], key)
	sc.CandIdx[j] = append(sc.CandIdx[j], uint32(int(bucket)-sc.lo[j]))
}

// signScratch returns the reusable sign column, grown to n entries.
func (sc *ColumnScatter) signScratch(n int) []float64 {
	if cap(sc.signs) < n {
		sc.signs = make([]float64, n)
	}
	return sc.signs[:n]
}

// keyScratch returns the reusable shifted-key column, grown to n entries.
func (sc *ColumnScatter) keyScratch(n int) []uint64 {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
	}
	return sc.keys[:n]
}

// ColumnSketch is the contract a family satisfies to ride the engine's
// key-partitioned mode: name its geometry, route update batches to column
// shards, and reassemble a full sketch from per-shard slices. ConcatColumns overwrites the receiver's counters —
// it is called on a fresh clone — and sets its mass accounting from the
// summed shard masses; families without mass ignore the argument.
//
// CountMin (non-conservative), CountSketch, Dyadic and HeavyHitterTracker
// implement it; their methods live beside each type.
type ColumnSketch interface {
	ColumnShape() ColumnShape
	ScatterColumns(items []uint64, deltas []float64, sc *ColumnScatter)
	ConcatColumns(slices [][]float64, mass float64) error
}

// appendColumnSlice copies columns [lo, hi) of every row of a flat row-major
// counter array, as float64: the slice a partitioned engine's shard holds of
// it.
func appendColumnSlice[T int32 | float64](dst []float64, counts []T, width, rows, lo, hi int) []float64 {
	for r := 0; r < rows; r++ {
		for _, v := range counts[r*width+lo : r*width+hi] {
			dst = append(dst, float64(v))
		}
	}
	return dst
}

// concatColumnSlices overwrites a flat row-major counter array from per-shard
// column slices — the inverse of appendColumnSlice, shared by the families'
// ConcatColumns — handing each row's run of a slice to put with its offset
// in the array. Each slices[j] must hold rows*(hi_j-lo_j) values.
func concatColumnSlices(slices [][]float64, shape ColumnShape, put func(off int, src []float64)) error {
	for j, s := range slices {
		lo, hi := shape.Range(j, len(slices))
		if len(s) != shape.Rows*(hi-lo) {
			return fmt.Errorf("sketch: column slice %d holds %d counters, want %d (%d rows x %d columns)",
				j, len(s), shape.Rows*(hi-lo), shape.Rows, hi-lo)
		}
		w := hi - lo
		for r := 0; r < shape.Rows; r++ {
			put(r*shape.Width+lo, s[r*w:(r+1)*w])
		}
	}
	return nil
}

// CandidateSet is a bounded top-score set of stream keys: Offer keeps the
// capacity highest-scoring distinct keys, updating the score of keys already
// present. It is the one candidate store of the package: the heavy-hitter
// tracker holds one scored by Count-Min estimates, and each shard of the
// engine's partitioned tracking holds one scored by its row-0 counters — the
// same "estimate never underestimates" upper bound.
//
// The store is a flat min-heap on score plus a key -> heap-position index.
// The sift routines are container/heap's, ported line for line, so ties break
// exactly as they always have (the golden tracker fixtures encode the
// resulting sets) — but on a concrete slice: no interface dispatch, and an
// eviction reuses the evicted entry's storage instead of allocating a node.
//
// The index is a small open-addressed table rather than a Go map: slots[s]
// holds a heap position plus one (zero is an empty slot), a key probes
// linearly from its home slot, and a removal shifts the run behind it back so
// no tombstones are left. The table always has at least four slots per held
// key, so probe runs stay a slot or two long. Every heap entry carries the
// slot that points at it, which makes a sift swap two stores into the table
// with nothing hashed; only Offer's lookup, an eviction and a table doubling
// hash keys.
type CandidateSet struct {
	cap   int
	heap  []candidate
	slots []uint32 // len a power of two, >= 4*len(heap)
	shift uint     // 64 - log2(len(slots)): home slot = key*phi >> shift
}

type candidate struct {
	item  uint64
	score float64
	slot  uint32 // slots[slot] == this entry's heap position + 1
}

// maxCandidates bounds the capacity so heap positions and slot numbers fit
// the table's 32-bit words (the decoders' dimension cap is the same 2^30).
const maxCandidates = 1 << 30

// NewCandidateSet builds an empty set keeping the given number of keys. The
// index starts small and doubles as keys arrive, so a large capacity costs
// nothing until it is used.
func NewCandidateSet(capacity int) *CandidateSet {
	if capacity < 1 || capacity > maxCandidates {
		panic(fmt.Sprintf("sketch: NewCandidateSet requires 1 <= capacity <= %d (got %d)", maxCandidates, capacity))
	}
	return &CandidateSet{cap: capacity, slots: make([]uint32, 8), shift: 64 - 3}
}

// Offer records the key with the given score, evicting the current minimum
// when the set is full and the newcomer scores higher.
func (c *CandidateSet) Offer(key uint64, score float64) {
	s, held := c.find(key)
	if held {
		i := int(c.slots[s]) - 1
		c.heap[i].score = score
		if !c.down(i, len(c.heap)) { // heap.Fix
			c.up(i)
		}
		return
	}
	n := len(c.heap)
	switch {
	case n >= c.cap:
		if score <= c.heap[0].score {
			return
		}
		c.swap(0, n-1) // heap.Pop
		c.down(0, n-1)
		c.unindex(c.heap[n-1].slot)
		c.heap = c.heap[:n-1]
		s, _ = c.find(key) // the removal may have moved the probe run's end
	case 4*(n+1) > len(c.slots):
		c.grow()
		s, _ = c.find(key)
	}
	c.heap = append(c.heap, candidate{item: key, score: score, slot: s}) // heap.Push
	c.slots[s] = uint32(len(c.heap))
	c.up(len(c.heap) - 1)
}

// home returns the slot a key's probe run starts at (Fibonacci hashing: the
// top bits of key times 2^64/phi).
func (c *CandidateSet) home(key uint64) uint32 {
	return uint32(key * 0x9E3779B97F4A7C15 >> c.shift)
}

// find probes for key: the slot holding its heap position and true, or the
// empty slot ending its probe run — where it would be indexed — and false.
// The table is never more than a quarter full, so the run ends.
func (c *CandidateSet) find(key uint64) (slot uint32, held bool) {
	mask := uint32(len(c.slots) - 1)
	for s := c.home(key); ; s = (s + 1) & mask {
		p := c.slots[s]
		if p == 0 {
			return s, false
		}
		if c.heap[p-1].item == key {
			return s, true
		}
	}
}

// unindex empties slot i and closes the gap: each entry further along the
// run moves back into the hole if its own probe run passes through it (its
// home is not after the hole), which leaves every remaining key reachable
// from its home with no empty slot in between.
func (c *CandidateSet) unindex(i uint32) {
	mask := uint32(len(c.slots) - 1)
	for j := (i + 1) & mask; c.slots[j] != 0; j = (j + 1) & mask {
		p := c.slots[j]
		if (j-c.home(c.heap[p-1].item))&mask >= (j-i)&mask {
			c.slots[i], c.heap[p-1].slot = p, i
			i = j
		}
	}
	c.slots[i] = 0
}

// grow doubles the table and re-indexes every held key.
func (c *CandidateSet) grow() {
	c.slots = make([]uint32, 2*len(c.slots))
	c.shift--
	for i := range c.heap {
		s, _ := c.find(c.heap[i].item)
		c.slots[s], c.heap[i].slot = uint32(i+1), s
	}
}

func (c *CandidateSet) swap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	c.slots[h[i].slot], c.slots[h[j].slot] = uint32(i+1), uint32(j+1)
}

func (c *CandidateSet) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(c.heap[j].score < c.heap[i].score) {
			break
		}
		c.swap(i, j)
		j = i
	}
}

func (c *CandidateSet) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && c.heap[j2].score < c.heap[j1].score {
			j = j2 // right child
		}
		if !(c.heap[j].score < c.heap[i].score) {
			break
		}
		c.swap(i, j)
		i = j
	}
	return i > i0
}

// Floor returns the minimum held score and true when the set is full — the
// score a new key must beat to be admitted. While the set has room every key
// is admitted and there is no floor (false).
func (c *CandidateSet) Floor() (float64, bool) {
	if len(c.heap) < c.cap {
		return 0, false
	}
	return c.heap[0].score, true
}

// Len returns the number of keys currently held.
func (c *CandidateSet) Len() int { return len(c.heap) }

// AppendItems appends the held keys to dst (in heap order) and returns it.
func (c *CandidateSet) AppendItems(dst []uint64) []uint64 {
	for _, cand := range c.heap {
		dst = append(dst, cand.item)
	}
	return dst
}

// Reset empties the set in place, keeping its storage.
func (c *CandidateSet) Reset() {
	c.heap = c.heap[:0]
	clear(c.slots)
}

// Copy returns an independent set holding the same keys and scores in the
// same heap order.
func (c *CandidateSet) Copy() *CandidateSet {
	return &CandidateSet{cap: c.cap, heap: slices.Clone(c.heap), slots: slices.Clone(c.slots), shift: c.shift}
}
