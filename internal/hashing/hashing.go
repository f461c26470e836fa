// Package hashing implements the hash families that drive every sketch in
// this repository: 2-universal multiply-shift hashing, k-wise independent
// polynomial hashing over a Mersenne prime field, sign (±1) hash families,
// and tabulation hashing.
//
// The survey's central observation is that hashing items into buckets is a
// sparse linear map; the quality of that map (collision probabilities,
// estimator variance) is governed by the independence of the hash family.
// Count-Min needs pairwise independence, Count-Sketch needs pairwise
// independent buckets plus pairwise independent signs, and the sparse Fourier
// transform's permutation needs a random invertible affine map, all of which
// are provided here.
//
// Every family also implements the batched contracts of batch.go
// (BatchHasher.HashBatch, BatchSignHasher.SignBatch): devirtualized loop
// kernels that map a whole column of keys per call, bit-identically to the
// scalar methods. Rows, in the same file, compiles all the row hashers of one
// sketch into a single kernel that yields flat counter indices; the sketches'
// batched hot paths are built on it.
package hashing

import (
	"fmt"
	"math/bits"

	"repro/internal/xrand"
)

// MersennePrime61 is 2^61 - 1, the modulus used by the polynomial hash
// family. Working modulo a Mersenne prime lets us reduce without division.
const MersennePrime61 = (1 << 61) - 1

// Hasher maps 64-bit keys to buckets in [0, Range()).
type Hasher interface {
	// Hash returns the bucket for key, in [0, Range()).
	Hash(key uint64) uint64
	// Range returns the number of buckets.
	Range() uint64
}

// SignHasher maps 64-bit keys to ±1.
type SignHasher interface {
	// Sign returns +1 or -1 for the key.
	Sign(key uint64) float64
}

// mod61 reduces x modulo 2^61-1. The input may be any uint64.
func mod61(x uint64) uint64 {
	x = (x & MersennePrime61) + (x >> 61)
	if x >= MersennePrime61 {
		x -= MersennePrime61
	}
	return x
}

// affine61 computes (a*x + b) mod (2^61-1) for a, x, b < 2^61 with a single
// reduction: one Horner step of the polynomial family. The 122-bit product
// splits as q*2^61 + r with q, r < 2^61, and 2^61 ≡ 1 (mod p), so
// a*x + b ≡ q + r + b, a sum below 3*2^61 < 2^63. One fold leaves at most
// p + 3 < 2p and one conditional subtraction lands in [0, p). A residue class
// has one member there, so this is bit for bit what reducing the product and
// then the sum separately returns — mod61(mod61(q+r) + b), the form the
// family was written in first — at about 60% of the instructions.
func affine61(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	// a, x < 2^61 so hi < 2^58 and q = hi<<3 | lo>>61 fits in a uint64.
	s := (hi<<3 | lo>>61) + (lo & MersennePrime61) + b
	s = (s & MersennePrime61) + (s >> 61)
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// mulmod61 computes (a*b) mod (2^61-1) for a, b < 2^61.
func mulmod61(a, b uint64) uint64 { return affine61(a, b, 0) }

// PolyHash is a k-wise independent hash family over the field GF(2^61-1),
// evaluated with Horner's rule: h(x) = (a_{k-1} x^{k-1} + ... + a_0) mod p,
// then mapped to [0, m). With k coefficients the family is k-wise
// independent.
type PolyHash struct {
	coeffs []uint64 // coefficients in [0, p), leading coefficient non-zero
	m      uint64
}

// NewPolyHash creates a k-wise independent hash function with range m.
// k must be >= 1 and m >= 1.
func NewPolyHash(r *xrand.Rand, k int, m uint64) *PolyHash {
	if k < 1 {
		panic("hashing: NewPolyHash requires k >= 1")
	}
	if m < 1 {
		panic("hashing: NewPolyHash requires m >= 1")
	}
	coeffs := make([]uint64, k)
	for i := range coeffs {
		coeffs[i] = r.Uint64n(MersennePrime61)
	}
	// Ensure the leading coefficient is non-zero so the polynomial has the
	// intended degree (k-wise independence requires a degree-(k-1) polynomial).
	if k > 1 && coeffs[k-1] == 0 {
		coeffs[k-1] = 1
	}
	return &PolyHash{coeffs: coeffs, m: m}
}

// Hash returns the bucket for key.
func (p *PolyHash) Hash(key uint64) uint64 {
	return p.raw(key) % p.m
}

// raw evaluates the polynomial at key modulo 2^61-1, before range reduction.
func (p *PolyHash) raw(key uint64) uint64 {
	x := mod61(key)
	acc := uint64(0)
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc = affine61(acc, x, p.coeffs[i])
	}
	return acc
}

// Range returns the number of buckets.
func (p *PolyHash) Range() uint64 { return p.m }

// Degree returns the independence parameter k of the family.
func (p *PolyHash) Degree() int { return len(p.coeffs) }

// PolySign is a k-wise independent ±1 hash family derived from PolyHash by
// taking the low bit of the polynomial evaluation.
type PolySign struct {
	p *PolyHash
}

// NewPolySign creates a k-wise independent sign family.
func NewPolySign(r *xrand.Rand, k int) *PolySign {
	return &PolySign{p: NewPolyHash(r, k, MersennePrime61)}
}

// Sign returns +1 or -1 for the key.
func (s *PolySign) Sign(key uint64) float64 {
	if s.p.raw(key)&1 == 0 {
		return 1
	}
	return -1
}

// MultiplyShift is the classic 2-universal multiply-shift hash for
// power-of-two ranges: h(x) = (a*x + b) >> (64 - log2(m)). It is the fastest
// family in the package and what a production stream processor would use for
// Count-Min rows.
type MultiplyShift struct {
	a, b uint64
	bits uint
	m    uint64
}

// NewMultiplyShift creates a multiply-shift hash with range m rounded up to
// the next power of two. The effective range is reported by Range().
func NewMultiplyShift(r *xrand.Rand, m uint64) *MultiplyShift {
	if m < 1 {
		panic("hashing: NewMultiplyShift requires m >= 1")
	}
	bits := uint(1)
	for (uint64(1) << bits) < m {
		bits++
	}
	a := r.Uint64() | 1 // multiplier must be odd
	b := r.Uint64()
	return &MultiplyShift{a: a, b: b, bits: bits, m: 1 << bits}
}

// Hash returns the bucket for key.
func (h *MultiplyShift) Hash(key uint64) uint64 {
	return (h.a*key + h.b) >> (64 - h.bits)
}

// Range returns the (power-of-two) number of buckets.
func (h *MultiplyShift) Range() uint64 { return h.m }

// Tabulation implements simple tabulation hashing: the key is split into
// 8-bit characters, each indexed into an independent random table, and the
// results are XORed. Simple tabulation is 3-independent and behaves like a
// fully random function for most sketching applications.
type Tabulation struct {
	tables [8][256]uint64
	m      uint64
}

// NewTabulation creates a tabulation hash with range m.
func NewTabulation(r *xrand.Rand, m uint64) *Tabulation {
	if m < 1 {
		panic("hashing: NewTabulation requires m >= 1")
	}
	t := &Tabulation{m: m}
	for i := range t.tables {
		for j := range t.tables[i] {
			t.tables[i][j] = r.Uint64()
		}
	}
	return t
}

// Hash returns the bucket for key.
func (t *Tabulation) Hash(key uint64) uint64 {
	var h uint64
	for i := 0; i < 8; i++ {
		h ^= t.tables[i][byte(key>>(8*uint(i)))]
	}
	return h % t.m
}

// Range returns the number of buckets.
func (t *Tabulation) Range() uint64 { return t.m }

// TabulationSign is a ±1 family built from tabulation hashing.
type TabulationSign struct {
	t *Tabulation
}

// NewTabulationSign creates a tabulation-based sign family.
func NewTabulationSign(r *xrand.Rand) *TabulationSign {
	return &TabulationSign{t: NewTabulation(r, 1<<62)}
}

// Sign returns +1 or -1 for the key.
func (s *TabulationSign) Sign(key uint64) float64 {
	if s.t.Hash(key)&1 == 0 {
		return 1
	}
	return -1
}

// Family identifies a hash family construction; it is used by experiment
// configuration to ablate the choice of family.
type Family int

const (
	// FamilyPoly2 is the pairwise independent polynomial family.
	FamilyPoly2 Family = iota
	// FamilyPoly4 is the 4-wise independent polynomial family.
	FamilyPoly4
	// FamilyMultiplyShift is the 2-universal multiply-shift family.
	FamilyMultiplyShift
	// FamilyTabulation is simple tabulation hashing.
	FamilyTabulation
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case FamilyPoly2:
		return "poly2"
	case FamilyPoly4:
		return "poly4"
	case FamilyMultiplyShift:
		return "multiply-shift"
	case FamilyTabulation:
		return "tabulation"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// NewHasher constructs a bucket hasher of the given family with range m.
func NewHasher(f Family, r *xrand.Rand, m uint64) Hasher {
	switch f {
	case FamilyPoly2:
		return NewPolyHash(r, 2, m)
	case FamilyPoly4:
		return NewPolyHash(r, 4, m)
	case FamilyMultiplyShift:
		return NewMultiplyShift(r, m)
	case FamilyTabulation:
		return NewTabulation(r, m)
	default:
		panic("hashing: unknown family " + f.String())
	}
}

// NewSigner constructs a ±1 hasher of the given family.
func NewSigner(f Family, r *xrand.Rand) SignHasher {
	switch f {
	case FamilyPoly2:
		return NewPolySign(r, 2)
	case FamilyPoly4:
		return NewPolySign(r, 4)
	case FamilyMultiplyShift:
		// Multiply-shift signs: use a fresh pairwise polynomial; multiply-shift
		// itself does not give unbiased signs on its low bits.
		return NewPolySign(r, 2)
	case FamilyTabulation:
		return NewTabulationSign(r)
	default:
		panic("hashing: unknown family " + f.String())
	}
}
