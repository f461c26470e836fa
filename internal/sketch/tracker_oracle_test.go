package sketch

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/hashing"
	"repro/internal/xrand"
)

// Differential oracle for the tracker's update kernel. refTracker below is
// the tracker as it stood before the one-pass kernel: one scalar hash per row
// to add, a second to estimate, a map of heap nodes and container/heap. It is
// deliberately straight-line and shares nothing with the kernel but the hash
// functions themselves (through the scalar Hash, not the batch kernels) and
// the Count-Min's whole-sketch arithmetic (Sub, Scale, Merge, Copy), which
// the kernel change does not touch. Its Count-Min is widened at
// construction, so the reference counts in float64 as the seed did while the
// tracker under test keeps whichever storage its stream allows.
//
// One liberty: the old Merge offered the union of the two candidate sets in
// Go map order, so ties at the capacity boundary broke at random. The
// reference pins the order the tracker now uses (the receiver's heap order,
// then the argument's) — one of the orders the old code could have taken.

type refCandidate struct {
	item  uint64
	count float64
	index int
}

type refHeap []*refCandidate

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].count < h[j].count }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *refHeap) Push(x interface{}) {
	c := x.(*refCandidate)
	c.index = len(*h)
	*h = append(*h, c)
}
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}

type refTracker struct {
	cm         *CountMin
	k          int
	candidates *refHeap
	inHeap     map[uint64]*refCandidate
}

func newRefTracker(cm *CountMin, k int) *refTracker {
	cm.widen()
	return &refTracker{cm: cm, k: k, candidates: &refHeap{}, inHeap: make(map[uint64]*refCandidate)}
}

func (t *refTracker) bucket(r int, item uint64) int {
	return r*t.cm.width + int(t.cm.hashes[r].Hash(item)%uint64(t.cm.width))
}

func (t *refTracker) estimate(item uint64) float64 {
	est := math.Inf(1)
	for r := 0; r < t.cm.depth; r++ {
		if v := t.cm.counts[t.bucket(r, item)]; v < est {
			est = v
		}
	}
	return est
}

func (t *refTracker) update(item uint64, delta float64) {
	for r := 0; r < t.cm.depth; r++ {
		t.cm.counts[t.bucket(r, item)] += delta
	}
	t.cm.totalMass += delta
	t.rescore(item)
}

// rescore is the body shared by the old Update and absorbCandidates.
func (t *refTracker) rescore(item uint64) {
	est := t.estimate(item)
	if c, ok := t.inHeap[item]; ok {
		c.count = est
		heap.Fix(t.candidates, c.index)
		return
	}
	t.offer(item, est)
}

func (t *refTracker) offer(item uint64, est float64) {
	if t.candidates.Len() < t.k {
		c := &refCandidate{item: item, count: est}
		heap.Push(t.candidates, c)
		t.inHeap[item] = c
		return
	}
	if min := (*t.candidates)[0]; est > min.count {
		heap.Pop(t.candidates)
		delete(t.inHeap, min.item)
		c := &refCandidate{item: item, count: est}
		heap.Push(t.candidates, c)
		t.inHeap[item] = c
	}
}

func (t *refTracker) items() []uint64 {
	var out []uint64
	for _, c := range *t.candidates {
		out = append(out, c.item)
	}
	return out
}

func (t *refTracker) merge(other *refTracker) {
	if err := t.cm.Merge(other.cm); err != nil {
		panic(err)
	}
	var union []uint64
	seen := make(map[uint64]bool)
	for _, item := range append(t.items(), other.items()...) {
		if !seen[item] {
			seen[item] = true
			union = append(union, item)
		}
	}
	t.candidates, t.inHeap = &refHeap{}, make(map[uint64]*refCandidate)
	for _, item := range union {
		t.offer(item, t.estimate(item))
	}
}

func (t *refTracker) copy() *refTracker {
	out := newRefTracker(t.cm.Copy(), t.k)
	for _, c := range *t.candidates {
		out.offer(c.item, c.count)
	}
	return out
}

// roundTrip is MarshalBinary + UnmarshalBinary as the old decoder did it:
// same counters, candidates re-offered in ascending item order at their
// current estimates.
func (t *refTracker) roundTrip() *refTracker {
	out := newRefTracker(t.cm.Copy(), t.k)
	items := t.items()
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, item := range items {
		out.offer(item, out.estimate(item))
	}
	return out
}

// requireSameTracker asserts the kernel-driven tracker and the reference
// agree bit for bit: counters, total mass, and the candidates' (item, stored
// score) in heap order.
func requireSameTracker(t *testing.T, step string, got *HeavyHitterTracker, want *refTracker) {
	t.Helper()
	for i, v := range want.cm.counts {
		if math.Float64bits(got.cm.at(i)) != math.Float64bits(v) {
			t.Fatalf("%s: counter %d = %v, reference %v", step, i, got.cm.at(i), v)
		}
	}
	if math.Float64bits(got.cm.totalMass) != math.Float64bits(want.cm.totalMass) {
		t.Fatalf("%s: total mass %v, reference %v", step, got.cm.totalMass, want.cm.totalMass)
	}
	if len(got.cands.heap) != want.candidates.Len() {
		t.Fatalf("%s: %d candidates, reference %d", step, len(got.cands.heap), want.candidates.Len())
	}
	for i, c := range *want.candidates {
		g := got.cands.heap[i]
		if g.item != c.item || math.Float64bits(g.score) != math.Float64bits(c.count) {
			t.Fatalf("%s: heap[%d] = (%d, %v), reference (%d, %v)", step, i, g.item, g.score, c.item, c.count)
		}
	}
	requireCandidateIndex(t, step, got.cands)
}

// requireCandidateIndex asserts the store's key index describes its heap:
// every heap entry's slot points back at the entry, a probe for its key ends
// on that slot, no other slot is live, and the table keeps four slots per key.
func requireCandidateIndex(t *testing.T, step string, c *candidateSet) {
	t.Helper()
	for i, g := range c.heap {
		if p := c.slots[g.slot]; int(p) != i+1 {
			t.Fatalf("%s: index says item %d sits at %d, heap has it at %d", step, g.item, int(p)-1, i)
		}
		if s, held := c.find(g.item); !held || s != g.slot {
			t.Fatalf("%s: probing for item %d ends at slot %d (held %v), its entry is indexed at %d", step, g.item, s, held, g.slot)
		}
	}
	live := 0
	for _, p := range c.slots {
		if p != 0 {
			live++
		}
	}
	if live != len(c.heap) {
		t.Fatalf("%s: index holds %d keys for %d heap entries", step, live, len(c.heap))
	}
	if len(c.slots) < 4*len(c.heap) || len(c.slots)&(len(c.slots)-1) != 0 {
		t.Fatalf("%s: %d slots for %d heap entries", step, len(c.slots), len(c.heap))
	}
}

// oracleColumns draws one batch. Keys are skewed towards the small end of the
// universe, so a chunk repeats keys and a few of them stay heavy; deltas are
// small non-negative integers (zeros included) unless mixed, when they are
// signed — the first such delta clears the floor-gate latch — and, with
// fractional, fractions too.
func oracleColumns(r *xrand.Rand, n int, universe uint64, mixed, fractional bool) ([]uint64, []float64) {
	items := make([]uint64, n)
	deltas := make([]float64, n)
	for i := range items {
		items[i] = r.Uint64n(universe) * r.Uint64n(universe) / universe
		switch {
		case mixed && fractional:
			deltas[i] = float64(r.Uint64n(1000))/7 - 50
		case mixed:
			deltas[i] = float64(r.Uint64n(101)) - 50
		default:
			deltas[i] = float64(r.Uint64n(4))
		}
	}
	return items, deltas
}

func TestTrackerMatchesSeedOracle(t *testing.T) {
	families := []hashing.Family{hashing.FamilyPoly2, hashing.FamilyPoly4, hashing.FamilyMultiplyShift, hashing.FamilyTabulation}
	r := xrand.New(20260929)
	for _, f := range families {
		for _, width := range []int{53, 4096, 65536} {
			for _, k := range []int{1, 4, 64} {
				for _, batch := range []int{1, 255, 256, 257, 1024, 4097} {
					name := fmt.Sprintf("%s/w%d/k%d/b%d", f, width, k, batch)
					seed := r.Uint64()
					t.Run(name, func(t *testing.T) {
						t.Run("integer", func(t *testing.T) {
							runTrackerOracle(t, xrand.New(seed), f, width, k, batch, false)
						})
						t.Run("fraction-mid-stream", func(t *testing.T) {
							runTrackerOracle(t, xrand.New(seed), f, width, k, batch, true)
						})
					})
				}
			}
		}
	}
}

// runTrackerOracle drives the tracker and the reference through one random
// schedule of batches and whole-sketch operations. Without fraction every
// delta and factor is an integer, so the tracker counts in int32 from start to
// end; with it, a fractional delta half way through widens the tracker, and
// from then on the deltas and factors include fractions while siblings,
// snapshots and decodes keep whatever storage their own contents allow.
func runTrackerOracle(t *testing.T, r *xrand.Rand, f hashing.Family, width, k, batch int, fraction bool) {
	depth := 1 + int(r.Uint64n(5))
	proto := NewCountMin(r, width, depth, WithCountMinHashFamily(f))
	got := newHeavyHitterTracker(proto.Clone(), k)
	want := newRefTracker(proto.Clone(), k)
	universe := []uint64{8, 300, 1 << 20}[r.Uint64n(3)]

	fractional := false // set from the batch half way through when fraction
	feed := func(step string, got *HeavyHitterTracker, want *refTracker, n int, mixed bool) {
		items, deltas := oracleColumns(r, n, universe, mixed, fractional)
		got.UpdateBatch(items, deltas)
		for i := range items {
			want.update(items[i], deltas[i])
		}
		requireSameTracker(t, step, got, want)
	}

	// Enough batches to fill the store and evict. Every step scans or copies
	// the whole counter array, so wide cells take fewer single-update steps.
	batches := 3 + min(60, 400000/width)/batch
	var gotSnap *HeavyHitterTracker
	var wantSnap *refTracker
	for b := 0; b < batches; b++ {
		if fraction && b == batches/2 {
			fractional = true
			got.Update(1, 0.5)
			want.update(1, 0.5)
			requireSameTracker(t, fmt.Sprintf("fraction before batch %d", b), got, want)
		}
		feed(fmt.Sprintf("batch %d", b), got, want, batch, r.Uint64n(4) == 0)

		step := fmt.Sprintf("after batch %d", b)
		switch r.Uint64n(9) {
		case 0: // remember a snapshot to subtract later
			gotSnap, wantSnap = got.Copy(), want.copy()
		case 1:
			if gotSnap != nil {
				if err := got.Sub(gotSnap); err != nil {
					t.Fatal(err)
				}
				if err := want.cm.Sub(wantSnap.cm); err != nil {
					t.Fatal(err)
				}
				requireSameTracker(t, step+" Sub", got, want)
			}
		case 2:
			c := []float64{3, 2, 1}[r.Uint64n(3)]
			if fractional {
				c = []float64{0.5, 2, -1}[r.Uint64n(3)]
			}
			got.Scale(c)
			want.cm.Scale(c)
			requireSameTracker(t, step+" Scale", got, want)
		case 3: // merge a sibling that saw its own short stream
			gotSib, wantSib := got.Clone(), newRefTracker(want.cm.Clone(), k)
			feed(step+" sibling", gotSib, wantSib, 1+int(r.Uint64n(300)), false)
			if err := got.Merge(gotSib); err != nil {
				t.Fatal(err)
			}
			want.merge(wantSib)
			requireSameTracker(t, step+" Merge", got, want)
		case 4:
			got, want = got.Copy(), want.copy()
			requireSameTracker(t, step+" Copy", got, want)
		case 5: // offer keys from outside, scored against the current counters
			keys, _ := oracleColumns(r, 1+int(r.Uint64n(20)), universe, false, false)
			got.absorbCandidates(keys)
			for _, key := range keys {
				want.rescore(key)
			}
			requireSameTracker(t, step+" absorbCandidates", got, want)
		case 6:
			data, err := got.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got = &HeavyHitterTracker{}
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			want = want.roundTrip()
			requireSameTracker(t, step+" UnmarshalBinary", got, want)
		case 7: // fold in a bare Count-Min that takes mass away
			cm := got.cm.Clone()
			items, deltas := oracleColumns(r, 1+int(r.Uint64n(300)), universe, false, false)
			if fractional {
				cm.UpdateBatch(items, deltas)
				cm.Scale(-1)
			} else {
				for i := range deltas {
					deltas[i] = -deltas[i] // -0 for the zeros, which counts as 0
				}
				cm.UpdateBatch(items, deltas)
			}
			if err := got.AbsorbCountMin(cm); err != nil {
				t.Fatal(err)
			}
			if err := want.cm.Merge(cm); err != nil {
				t.Fatal(err)
			}
			requireSameTracker(t, step+" AbsorbCountMin", got, want)
		}
	}
	if !fraction && got.Widened() {
		t.Fatal("an integer schedule widened the tracker's counters")
	}
}
