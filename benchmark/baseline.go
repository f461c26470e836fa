package main

import "math/bits"

// baselineCM is the yardstick rung: a straight-line Count-Min in the shape of
// the SNIPPETS.md exemplar — one pairwise-independent (a·x+b) mod p hash per
// row over the Mersenne prime p = 2^61-1, a scalar Add, integer counters. It
// is never optimised; the sketch and hashing layers state their cost against
// it rather than against their own older code.
type baselineCM struct {
	width  uint64
	coeffs [][2]uint64 // per row: a in [1, p), b in [0, p)
	table  []uint64    // row-major
}

const mersenne61 = 1<<61 - 1

func newBaselineCM(width, depth int, seed uint64) *baselineCM {
	rng := splitmix64(seed)
	cm := &baselineCM{
		width:  uint64(width),
		coeffs: make([][2]uint64, depth),
		table:  make([]uint64, width*depth),
	}
	for r := range cm.coeffs {
		cm.coeffs[r] = [2]uint64{1 + rng.next()%(mersenne61-1), rng.next() % mersenne61}
	}
	return cm
}

// bucket returns ((a·x + b) mod p) mod width for the row.
func (cm *baselineCM) bucket(row int, x uint64) uint64 {
	hi, lo := bits.Mul64(cm.coeffs[row][0], x)
	lo, carry := bits.Add64(lo, cm.coeffs[row][1], 0)
	hi += carry
	// 2^61 ≡ 1 (mod p): fold the 128-bit value 61 bits at a time.
	v := lo&mersenne61 + (lo>>61 | hi<<3&mersenne61) + hi>>58
	v = v&mersenne61 + v>>61
	if v >= mersenne61 {
		v -= mersenne61
	}
	return v % cm.width
}

func (cm *baselineCM) add(x, count uint64) {
	for r := range cm.coeffs {
		cm.table[uint64(r)*cm.width+cm.bucket(r, x)] += count
	}
}

func (cm *baselineCM) estimate(x uint64) uint64 {
	min := ^uint64(0)
	for r := range cm.coeffs {
		if v := cm.table[uint64(r)*cm.width+cm.bucket(r, x)]; v < min {
			min = v
		}
	}
	return min
}
