package sketch

import (
	"fmt"
	"slices"
)

// candidateSet is a bounded top-score set of stream keys: Offer keeps the
// capacity highest-scoring distinct keys, updating the score of keys already
// present. The heavy-hitter tracker holds one, scored by Count-Min estimates.
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
type candidateSet struct {
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

// newCandidateSet builds an empty set keeping the given number of keys. The
// index starts small and doubles as keys arrive, so a large capacity costs
// nothing until it is used.
func newCandidateSet(capacity int) *candidateSet {
	if capacity < 1 || capacity > maxCandidates {
		panic(fmt.Sprintf("sketch: newCandidateSet requires 1 <= capacity <= %d (got %d)", maxCandidates, capacity))
	}
	return &candidateSet{cap: capacity, slots: make([]uint32, 8), shift: 64 - 3}
}

// Offer records the key with the given score, evicting the current minimum
// when the set is full and the newcomer scores higher.
func (c *candidateSet) Offer(key uint64, score float64) {
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
func (c *candidateSet) home(key uint64) uint32 {
	return uint32(key * 0x9E3779B97F4A7C15 >> c.shift)
}

// find probes for key: the slot holding its heap position and true, or the
// empty slot ending its probe run — where it would be indexed — and false.
// The table is never more than a quarter full, so the run ends.
func (c *candidateSet) find(key uint64) (slot uint32, held bool) {
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
func (c *candidateSet) unindex(i uint32) {
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
func (c *candidateSet) grow() {
	c.slots = make([]uint32, 2*len(c.slots))
	c.shift--
	for i := range c.heap {
		s, _ := c.find(c.heap[i].item)
		c.slots[s], c.heap[i].slot = uint32(i+1), s
	}
}

func (c *candidateSet) swap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	c.slots[h[i].slot], c.slots[h[j].slot] = uint32(i+1), uint32(j+1)
}

func (c *candidateSet) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(c.heap[j].score < c.heap[i].score) {
			break
		}
		c.swap(i, j)
		j = i
	}
}

func (c *candidateSet) down(i0, n int) bool {
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
func (c *candidateSet) Floor() (float64, bool) {
	if len(c.heap) < c.cap {
		return 0, false
	}
	return c.heap[0].score, true
}

// Len returns the number of keys currently held.
func (c *candidateSet) Len() int { return len(c.heap) }

// AppendItems appends the held keys to dst (in heap order) and returns it.
func (c *candidateSet) AppendItems(dst []uint64) []uint64 {
	for _, cand := range c.heap {
		dst = append(dst, cand.item)
	}
	return dst
}

// Reset empties the set in place, keeping its storage.
func (c *candidateSet) Reset() {
	c.heap = c.heap[:0]
	clear(c.slots)
}

// Copy returns an independent set holding the same keys and scores in the
// same heap order.
func (c *candidateSet) Copy() *candidateSet {
	return &candidateSet{cap: c.cap, heap: slices.Clone(c.heap), slots: slices.Clone(c.slots), shift: c.shift}
}
