package server

import (
	"math/bits"
	"math/rand/v2"
)

// Summing repeated keys before the sketch.
//
// Every sketch the daemon serves is linear in the frequency vector, so within
// one batch the updates (i, a) and (i, b) are the single update (i, a+b). For
// integer deltas the sum is exact, and so is everything downstream: a counter
// receives the same integer whether its deltas arrive one by one or summed,
// and so does the total mass, as long as both stay below 2^53 in magnitude.
// The one thing that sees the difference is the tracker's candidate store,
// which is offered each key once per batch, at the estimate right after its
// summed update, at the key's first position in the batch, instead of once
// per record.
//
// The gate is SKB3's rule for a two's-complement delta (intDelta, applied by
// headerFor): every delta an integer in int32 range and none -0. A batch with
// any other delta goes through as it came, so a fraction, NaN or ±Inf still
// widens the counters at the same record as it would unsummed.

// maxSummedBatch bounds the records one fold sums: no partial sum of 2^21
// int32 deltas reaches 2^53, so every sum is exact in float64.
const maxSummedBatch = 1 << 21

// repeatSum folds a batch's repeated keys into their first occurrence. Each
// ingest lane and stream connection owns one and uses it under the lock that
// already guards its columns. Its index is sized to the largest batch the
// owner has summed, and steady state allocates nothing.
type repeatSum struct {
	// slots is an open-addressing index over the batch's distinct keys, twice
	// the batch rounded up to a power of two: 0 is empty, s is output record
	// s-1. It is all zeros between folds.
	slots []uint32
	// mul is the odd multiplier of the multiply-shift slot hash, drawn at
	// random so that no client can choose keys that all probe one run.
	mul uint64
}

// fold sums the deltas of repeated keys in place, keeping each key at its
// first occurrence, and returns how many records remain at the front of
// items and deltas. A batch that fails the gate and a batch of fewer than two
// records come back untouched, length and all.
func (r *repeatSum) fold(items []uint64, deltas []float64) int {
	n := len(items)
	if n < 2 || n > maxSummedBatch {
		return n
	}
	deltas = deltas[:n]
	for _, d := range deltas {
		if !intDelta(d) {
			return n
		}
	}
	lg := bits.Len(uint(2*n - 1))
	if len(r.slots) < 1<<lg {
		r.slots = make([]uint32, 1<<lg)
		r.mul = rand.Uint64() | 1
	}
	slots := r.slots[:1<<lg]
	mask, shift := uint64(len(slots)-1), uint(64-lg)
	m := 0
	for i, k := range items {
		h := k * r.mul >> shift
		for {
			s := slots[h]
			if s == 0 {
				slots[h] = uint32(m + 1)
				items[m], deltas[m] = k, deltas[i]
				m++
				break
			}
			if items[s-1] == k {
				deltas[s-1] += deltas[i]
				break
			}
			h = (h + 1) & mask
		}
	}
	clear(slots)
	return m
}
