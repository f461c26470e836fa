package sketch

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// Differential tests for the candidate store. The reference is the oracle
// tracker's store (tracker_oracle_test.go): a Go map of heap nodes under
// container/heap, driven here with explicit scores instead of estimates.

// newRefStore returns a reference store of capacity k: an oracle tracker over
// a one-counter sketch it never reads (copy clones it, nothing more).
func newRefStore(k int) *refTracker { return newRefTracker(NewCountMin(xrand.New(1), 1, 1), k) }

// offerScored is candidateSet.Offer on the reference store.
func (t *refTracker) offerScored(key uint64, score float64) {
	if c, ok := t.inHeap[key]; ok {
		c.count = score
		heap.Fix(t.candidates, c.index)
		return
	}
	t.offer(key, score)
}

// requireSameCandidates asserts the store holds the reference's (key, score)
// pairs in the reference's heap order, and that its index describes its heap.
func requireSameCandidates(t *testing.T, step string, got *candidateSet, want *refTracker) {
	t.Helper()
	if got.Len() != want.candidates.Len() {
		t.Fatalf("%s: %d candidates, reference %d", step, got.Len(), want.candidates.Len())
	}
	for i, c := range *want.candidates {
		if g := got.heap[i]; g.item != c.item || math.Float64bits(g.score) != math.Float64bits(c.count) {
			t.Fatalf("%s: heap[%d] = (%d, %v), reference (%d, %v)", step, i, g.item, g.score, c.item, c.count)
		}
	}
	requireCandidateIndex(t, step, got)
	floor, full := got.Floor()
	if full != (got.Len() == want.k) || (full && floor != (*want.candidates)[0].count) {
		t.Fatalf("%s: Floor() = (%v, %v) with %d of %d held, reference minimum %v", step, floor, full, got.Len(), want.k, (*want.candidates)[0].count)
	}
}

// sameHomeKeys returns n distinct keys (key 0 first) whose probe runs start at
// one slot of a table of the given size — and so of every smaller table too,
// since the home slot is a prefix of the same hash bits.
func sameHomeKeys(n, slots int) []uint64 {
	c := &candidateSet{shift: uint(64 - log2Ceil(uint64(slots)))}
	keys := []uint64{0}
	for k := uint64(1); len(keys) < n; k++ {
		if c.home(k) == c.home(0) {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestCandidateSetMatchesOracle(t *testing.T) {
	r := xrand.New(20260930)
	for _, capacity := range []int{1, 2, 64} {
		colliding := sameHomeKeys(3*capacity+8, 4*64)
		streams := map[string]func(i int) (uint64, float64){
			// Climbing scores: almost every new key evicts the minimum.
			"churn": func(i int) (uint64, float64) { return r.Uint64(), float64(i) + float64(r.Uint64n(8)) },
			// A small universe re-scores held keys up and down; few distinct
			// scores, so ties at the floor and inside the heap are constant.
			"rescore-ties": func(i int) (uint64, float64) { return r.Uint64n(uint64(3*capacity) + 2), float64(r.Uint64n(5)) },
			// Every key probes from one slot: lookups walk the longest runs
			// the table can hold, and evictions shift them back.
			"one-home-slot": func(i int) (uint64, float64) {
				return colliding[r.Uint64n(uint64(len(colliding)))], float64(r.Uint64n(uint64(i + 1)))
			},
			// Scores of every kind Offer's comparisons meet.
			"odd-scores": func(i int) (uint64, float64) {
				scores := []float64{0, math.Copysign(0, -1), -3, 7, math.Inf(1), math.Inf(-1), 2.5}
				return r.Uint64n(uint64(2*capacity) + 1), scores[r.Uint64n(uint64(len(scores)))]
			},
		}
		for name, next := range streams {
			got, want := newCandidateSet(capacity), newRefStore(capacity)
			for i := 0; i < 4000; i++ {
				key, score := next(i)
				got.Offer(key, score)
				want.offerScored(key, score)
				requireSameCandidates(t, fmt.Sprintf("cap %d %s offer %d (%d, %v)", capacity, name, i, key, score), got, want)
			}
		}
	}
}

func TestCandidateSetCopyAndReset(t *testing.T) {
	r := xrand.New(5)
	orig, want := newCandidateSet(64), newRefStore(64)
	offer := func(c *candidateSet, ref *refTracker, n int) {
		for i := 0; i < n; i++ {
			key, score := r.Uint64n(200), float64(r.Uint64n(1000))
			c.Offer(key, score)
			ref.offerScored(key, score)
		}
	}
	offer(orig, want, 500)
	cp, wantCp := orig.Copy(), want.copy()
	requireSameCandidates(t, "copy", cp, wantCp)
	offer(orig, want, 500) // the copy must not see these
	requireSameCandidates(t, "copy after the original moved on", cp, wantCp)
	offer(cp, wantCp, 500) // nor the original these
	requireSameCandidates(t, "original after the copy moved on", orig, want)
	requireSameCandidates(t, "copy after its own offers", cp, wantCp)

	slots := len(orig.slots)
	orig.Reset()
	want = newRefStore(64)
	requireSameCandidates(t, "reset", orig, want)
	if len(orig.slots) != slots {
		t.Fatalf("Reset changed the table from %d to %d slots", slots, len(orig.slots))
	}
	offer(orig, want, 500)
	requireSameCandidates(t, "offers after reset", orig, want)
}

// TestCandidateSetLargeCapacityStartsSmall: the capacity is a bound, not a
// reservation — a decoder may be handed k = 2^30 by a few bytes of input.
func TestCandidateSetLargeCapacityStartsSmall(t *testing.T) {
	c := newCandidateSet(maxCandidates)
	for key := uint64(0); key < 100; key++ {
		c.Offer(key, float64(key))
	}
	requireCandidateIndex(t, "100 keys of 2^30", c)
	if len(c.slots) > 1024 {
		t.Fatalf("table holds %d slots for 100 keys", len(c.slots))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a capacity above maxCandidates did not panic")
		}
	}()
	newCandidateSet(maxCandidates + 1)
}

func FuzzCandidateSetMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 1, 9, 2, 8, 3, 7, 1, 3, 2, 2})
	f.Add([]byte{1, 0, 0, 0, 1, 64, 5, 128, 5, 192, 4, 0, 9})
	f.Add([]byte{2, 255, 255, 7, 0, 7, 255, 7, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := []int{1, 2, 64}[int(data[0])%3]
		got, want := newCandidateSet(capacity), newRefStore(capacity)
		// One byte picks the key, one the score: 256 keys spread over the
		// table by the multiplier (byte 0 is key 0), scores in sixteenths so
		// ties are frequent.
		for i := 1; i+1 < len(data); i += 2 {
			key, score := uint64(data[i])*0x0101010101010101, float64(int8(data[i+1]))/16
			got.Offer(key, score)
			want.offerScored(key, score)
			requireSameCandidates(t, fmt.Sprintf("offer %d (%d, %v)", i/2, key, score), got, want)
		}
	})
}

// TestCandidateSetChurnZeroAlloc: a full set admitting a new key on every
// offer — evict, unindex, re-index — allocates nothing.
func TestCandidateSetChurnZeroAlloc(t *testing.T) {
	c := newCandidateSet(64)
	next := uint64(0)
	churn := func() {
		for i := 0; i < 1000; i++ {
			next++
			c.Offer(next*0x9e3779b97f4a7c15, float64(next))
		}
	}
	churn() // fill, and grow the table to its final size
	held := c.AppendItems(nil)
	if avg := testing.AllocsPerRun(20, churn); avg != 0 {
		t.Fatalf("eviction churn on a full set allocates %v objects per 1000 offers, want 0", avg)
	}
	for _, item := range held {
		if _, still := c.find(item); still {
			t.Fatalf("key %d survived 20000 higher-scoring offers: the measured runs did not evict", item)
		}
	}
	requireCandidateIndex(t, "after churn", c)
}

// TestTrackerMergeZeroAlloc: merging re-scores the candidate union through
// the batched estimate and rebuilds the store in place.
func TestTrackerMergeZeroAlloc(t *testing.T) {
	items, deltas := benchColumns(2048)
	a := NewHeavyHitterTracker(xrand.New(1), 1024, 4, 64)
	b := a.Clone()
	a.UpdateBatch(items[:1024], deltas[:1024])
	b.UpdateBatch(items[1024:], deltas[1024:])
	if err := a.Merge(b); err != nil { // warm the scratch
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { a.Merge(b) }); avg != 0 {
		t.Fatalf("Merge allocates %v objects steady-state, want 0", avg)
	}
}

// TestTrackerGateStopsAtFirstSignedDelta pins where the floor gate applies
// inside one chunk. The gate is invisible while its invariant holds, so the
// test breaks the invariant on purpose: every stored score is raised far
// above the truth with the latch left set. An item the gate skips then keeps
// its inflated score; an item that reaches Offer is re-scored to its real
// estimate. With a negative or NaN delta in the middle of the chunk, exactly
// the items before it must be skipped.
func TestTrackerGateStopsAtFirstSignedDelta(t *testing.T) {
	const k, inflated = 64, 1e12
	for name, delta := range map[string]float64{"negative": -1, "NaN": math.NaN()} {
		for _, width := range []int{4096, 53} { // depth 4 takes the unrolled counter pass, depth 3 the generic one
			depth := 4
			if width == 53 {
				depth = 3
			}
			tr := NewHeavyHitterTracker(xrand.New(3), width, depth, k)
			keys := make([]uint64, k)
			ones := make([]float64, k)
			for i := range keys {
				keys[i], ones[i] = uint64(i)*0x9e3779b97f4a7c15, 1
			}
			tr.UpdateBatch(keys, ones) // fills the store; the latch stays set
			if !tr.scoresLow || tr.cands.Len() != k {
				t.Fatalf("%s w%d: store not full and latched after the fill", name, width)
			}
			for i := range tr.cands.heap {
				tr.cands.heap[i].score = inflated
			}
			// One chunk touching every stored key a few times in a row, in
			// key order. The signed delta rides on the last update of key 25:
			// that key reaches Offer through the signed update alone.
			n := indexChunk - 7
			items, deltas := make([]uint64, n), make([]float64, n)
			bad := 0
			for i := range items {
				items[i], deltas[i] = keys[i*k/n], 1
				if i*k/n == 25 {
					bad = i
				}
			}
			deltas[bad] = delta
			tr.UpdateBatch(items, deltas)

			reached := make(map[uint64]bool)
			for _, item := range items[bad:] {
				reached[item] = true
			}
			for _, c := range tr.cands.heap {
				if reached[c.item] == (c.score == inflated) {
					t.Errorf("%s w%d: key %d reached Offer = %v but its stored score is %v", name, width, c.item, reached[c.item], c.score)
				}
			}
			if len(reached) == k || len(reached) == 0 {
				t.Fatalf("%s w%d: the chunk does not separate gated from ungated keys", name, width)
			}
			if tr.scoresLow {
				t.Errorf("%s w%d: latch still set after a %s delta", name, width, name)
			}
			// The latch stays cleared: a later all-positive chunk gates nothing.
			for i := range tr.cands.heap {
				tr.cands.heap[i].score = inflated
			}
			tr.UpdateBatch(keys, ones)
			for _, c := range tr.cands.heap {
				if c.score == inflated {
					t.Errorf("%s w%d: key %d was gated with the latch cleared", name, width, c.item)
				}
			}
			requireCandidateIndex(t, name, tr.cands)
		}
	}
}

// TestAddAndMinMatchesSequentialMin drives the counter pass — the unrolled
// depth-4 loop with its fast minimum, and the generic loop — against the
// definition: add in row order, fold with `<` from +Inf. Counters and deltas
// are drawn from the values where a minimum instruction and that fold part
// ways: NaN, signed zeros and infinities.
func TestAddAndMinMatchesSequentialMin(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 2, 5e-324, -5e-324}
	deltaVals := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(-1), 0.5}
	r := xrand.New(41)
	pick := func(vals []float64) float64 { return vals[r.Uint64n(uint64(len(vals)))] }
	for _, depth := range []int{1, 3, 4, 5} {
		for trial := 0; trial < 200; trial++ {
			const width, n, stride = 16, 100, 128
			counts := make([]float64, depth*width)
			for i := range counts {
				counts[i] = pick(specials)
			}
			idx := make([]uint64, depth*stride)
			deltas := make([]float64, n)
			for i := range deltas {
				if r.Uint64n(4) > 0 {
					deltas[i] = float64(r.Uint64n(3)) // mostly plain, so the run of unsigned deltas varies
				} else {
					deltas[i] = pick(deltaVals)
				}
				for row := 0; row < depth; row++ {
					idx[row*stride+i] = uint64(row*width) + r.Uint64n(width)
				}
			}
			want, wantEst := append([]float64(nil), counts...), make([]float64, n)
			wantMass, wantUnsigned := 7.0, n
			for i, d := range deltas {
				e := math.Inf(1)
				for row := 0; row < depth; row++ {
					j := idx[row*stride+i]
					want[j] += d
					if want[j] < e {
						e = want[j]
					}
				}
				wantEst[i] = e
				wantMass += d
				if !(d >= 0) && wantUnsigned == n {
					wantUnsigned = i
				}
			}
			est := make([]float64, n)
			unsigned, mass := addAndMinWide(counts, idx, stride, depth, deltas, est, 7)
			if unsigned != wantUnsigned || math.Float64bits(mass) != math.Float64bits(wantMass) {
				t.Fatalf("depth %d: (mass, unsigned) = (%v, %d), want (%v, %d)", depth, mass, unsigned, wantMass, wantUnsigned)
			}
			for i := range est {
				if math.Float64bits(est[i]) != math.Float64bits(wantEst[i]) {
					t.Fatalf("depth %d item %d: estimate %v (%#x), sequential fold %v (%#x)",
						depth, i, est[i], math.Float64bits(est[i]), wantEst[i], math.Float64bits(wantEst[i]))
				}
			}
			for j := range counts {
				// NaN payloads may differ by operand order in hardware; both
				// sides add in the same order, so even those match.
				if math.Float64bits(counts[j]) != math.Float64bits(want[j]) {
					t.Fatalf("depth %d counter %d: %v, want %v", depth, j, counts[j], want[j])
				}
			}
		}
	}
}
