package hashing

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/xrand"
)

// randomKeys draws n keys spanning small values (dense universes) and the
// full 64-bit range (token hashes).
func randomKeys(r *xrand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		if i%2 == 0 {
			keys[i] = r.Uint64n(1 << 20)
		} else {
			keys[i] = r.Uint64()
		}
	}
	return keys
}

// TestHashBatchMatchesScalar asserts the batched kernels are bit-identical
// to the scalar Hash path for every family, every range shape, and both the
// concrete-type and interface-dispatch entry points. The batch kernels
// reduce with a mask when the range is a power of two and with % otherwise
// (the scalar path always divides), so poly2, poly4 and tabulation each
// appear on both sides of that branch, range 1 (mask 0) included.
func TestHashBatchMatchesScalar(t *testing.T) {
	r := xrand.New(11)
	keys := randomKeys(r, 513)
	hashers := map[string]Hasher{
		"poly1":            NewPolyHash(xrand.New(1), 1, 977),
		"poly2-pow2":       NewPolyHash(xrand.New(2), 2, 1024),
		"poly2-odd":        NewPolyHash(xrand.New(2), 2, 1000),
		"poly2-one":        NewPolyHash(xrand.New(2), 2, 1),
		"poly4-pow2":       NewPolyHash(xrand.New(3), 4, 65536),
		"poly4-odd":        NewPolyHash(xrand.New(3), 4, 37),
		"poly7":            NewPolyHash(xrand.New(4), 7, 999983),
		"multiply-shift":   NewMultiplyShift(xrand.New(5), 4096),
		"multiply-shift-1": NewMultiplyShift(xrand.New(6), 1),
		"tabulation-pow2":  NewTabulation(xrand.New(7), 1<<20),
		"tabulation-odd":   NewTabulation(xrand.New(7), 12345),
		"tabulation-one":   NewTabulation(xrand.New(7), 1),
	}
	for name, h := range hashers {
		dst := make([]uint64, len(keys))
		HashBatch(h, keys, dst)
		for i, k := range keys {
			if want := h.Hash(k); dst[i] != want {
				t.Fatalf("%s: HashBatch[%d] = %d, scalar Hash = %d", name, i, dst[i], want)
			}
		}
		// The concrete kernels must agree with the dispatch helper too.
		if b, ok := h.(BatchHasher); ok {
			dst2 := make([]uint64, len(keys))
			b.HashBatch(keys, dst2)
			for i := range dst {
				if dst[i] != dst2[i] {
					t.Fatalf("%s: dispatch and concrete kernels disagree at %d", name, i)
				}
			}
		} else {
			t.Fatalf("%s: does not implement BatchHasher", name)
		}
	}
}

// TestSignBatchMatchesScalar asserts the batched sign kernels are
// bit-identical to the scalar Sign path for every sign family.
func TestSignBatchMatchesScalar(t *testing.T) {
	r := xrand.New(13)
	keys := randomKeys(r, 513)
	signers := map[string]SignHasher{
		"poly2-sign":      NewPolySign(xrand.New(1), 2),
		"poly4-sign":      NewPolySign(xrand.New(2), 4),
		"tabulation-sign": NewTabulationSign(xrand.New(3)), // range 2^62: the mask branch
		// No constructor builds these, but SignBatch must match Sign on the
		// dividing branch too, and at range 1 where every sign is +1.
		"tabulation-sign-odd": &TabulationSign{t: NewTabulation(xrand.New(3), 12345)},
		"tabulation-sign-one": &TabulationSign{t: NewTabulation(xrand.New(3), 1)},
	}
	for name, s := range signers {
		dst := make([]float64, len(keys))
		SignBatch(s, keys, dst)
		for i, k := range keys {
			if want := s.Sign(k); dst[i] != want {
				t.Fatalf("%s: SignBatch[%d] = %v, scalar Sign = %v", name, i, dst[i], want)
			}
		}
		if _, ok := s.(BatchSignHasher); !ok {
			t.Fatalf("%s: does not implement BatchSignHasher", name)
		}
	}
}

// TestHashBatchFallback exercises the scalar fallback for a Hasher that does
// not implement the batch contract.
func TestHashBatchFallback(t *testing.T) {
	h := constHasher{v: 3, m: 8}
	keys := []uint64{1, 2, 3}
	dst := make([]uint64, 3)
	HashBatch(h, keys, dst)
	for i := range dst {
		if dst[i] != 3 {
			t.Fatalf("fallback HashBatch[%d] = %d, want 3", i, dst[i])
		}
	}
	var sdst [3]float64
	SignBatch(constSigner{}, keys, sdst[:])
	for i := range sdst {
		if sdst[i] != -1 {
			t.Fatalf("fallback SignBatch[%d] = %v, want -1", i, sdst[i])
		}
	}
}

type constHasher struct{ v, m uint64 }

func (c constHasher) Hash(uint64) uint64 { return c.v }
func (c constHasher) Range() uint64      { return c.m }

type constSigner struct{}

func (constSigner) Sign(uint64) float64 { return -1 }

// Benchmarks ----------------------------------------------------------------

const benchBatchLen = 4096

func benchHashBatch(b *testing.B, h Hasher) {
	keys := randomKeys(xrand.New(1), benchBatchLen)
	dst := make([]uint64, benchBatchLen)
	b.SetBytes(8 * benchBatchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashBatch(h, keys, dst)
	}
}

func benchHashScalar(b *testing.B, h Hasher) {
	keys := randomKeys(xrand.New(1), benchBatchLen)
	dst := make([]uint64, benchBatchLen)
	b.SetBytes(8 * benchBatchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, k := range keys {
			dst[j] = h.Hash(k)
		}
	}
}

func BenchmarkMultiplyShiftBatch(b *testing.B) {
	benchHashBatch(b, NewMultiplyShift(xrand.New(1), 4096))
}

func BenchmarkMultiplyShiftScalar(b *testing.B) {
	benchHashScalar(b, NewMultiplyShift(xrand.New(1), 4096))
}

func BenchmarkPoly2Batch(b *testing.B) {
	benchHashBatch(b, NewPolyHash(xrand.New(1), 2, 4096))
}

func BenchmarkPoly2Scalar(b *testing.B) {
	benchHashScalar(b, NewPolyHash(xrand.New(1), 2, 4096))
}

func BenchmarkTabulationBatch(b *testing.B) {
	benchHashBatch(b, NewTabulation(xrand.New(1), 4096))
}

func BenchmarkTabulationScalar(b *testing.B) {
	benchHashScalar(b, NewTabulation(xrand.New(1), 4096))
}

func BenchmarkPolySignBatch(b *testing.B) {
	s := NewPolySign(xrand.New(1), 2)
	keys := randomKeys(xrand.New(1), benchBatchLen)
	dst := make([]float64, benchBatchLen)
	b.SetBytes(8 * benchBatchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SignBatch(s, keys, dst)
	}
}

func BenchmarkRowsBatch(b *testing.B) {
	for _, width := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			r := xrand.New(1)
			hashers := make([]Hasher, 4)
			for i := range hashers {
				hashers[i] = NewHasher(FamilyPoly2, r, uint64(width))
			}
			rows := NewRows(hashers, width)
			keys := randomKeys(xrand.New(1), benchBatchLen)
			const chunk = 256
			dst := make([]uint64, 4*chunk)
			b.SetBytes(8 * benchBatchLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < len(keys); j += chunk {
					rows.Index(keys[j:j+chunk], dst, chunk)
				}
			}
		})
	}
}

// Row-set kernel ---------------------------------------------------------------

// edgeKeys are the keys the Mersenne reduction treats specially — the
// residues around p = 2^61-1, the first key needing the fold's carry, and the
// largest key — ahead of n random ones.
func edgeKeys(r *xrand.Rand, n int) []uint64 {
	const p = MersennePrime61
	return append([]uint64{0, 1, p - 1, p, p + 1, 1 << 61, 1<<64 - 1}, randomKeys(r, n)...)
}

// requireRowsMatchScalar checks Index against the definition it documents,
// computed with the scalar Hash of each row.
func requireRowsMatchScalar(t *testing.T, name string, hashers []Hasher, width int, keys []uint64) {
	t.Helper()
	rows := NewRows(hashers, width)
	for _, stride := range []int{len(keys), len(keys) + 3} {
		dst := make([]uint64, len(hashers)*stride)
		rows.Index(keys, dst, stride)
		for r, h := range hashers {
			for i, k := range keys {
				want := uint64(r)*uint64(width) + h.Hash(k)%uint64(width)
				if got := dst[r*stride+i]; got != want {
					t.Fatalf("%s stride %d: row %d key %d (%#x): index %d, scalar %d", name, stride, r, i, k, got, want)
				}
			}
		}
	}
}

// TestRowsIndexMatchesScalar runs the row-set kernel against scalar Hash for
// every family, depths on both sides of the four-row unrolling, and widths on
// both sides of the power-of-two condition, and pins which loop each shape
// takes: the fused one exactly for pairwise polynomial rows over a
// power-of-two width.
func TestRowsIndexMatchesScalar(t *testing.T) {
	keys := edgeKeys(xrand.New(17), 300)
	for _, f := range []Family{FamilyPoly2, FamilyPoly4, FamilyMultiplyShift, FamilyTabulation} {
		for depth := 1; depth <= 8; depth++ {
			for _, width := range []int{1, 3, 1000, 4096, 65536} {
				r := xrand.New(uint64(100*depth + width))
				hashers := make([]Hasher, depth)
				for i := range hashers {
					hashers[i] = NewHasher(f, r, uint64(width))
				}
				name := fmt.Sprintf("%s/d%d/w%d", f, depth, width)
				requireRowsMatchScalar(t, name, hashers, width, keys)
				requireRowsMatchScalar(t, name+"/one-key", hashers, width, keys[3:4])
				fused := NewRows(hashers, width).poly != nil
				if want := f == FamilyPoly2 && width&(width-1) == 0; fused != want {
					t.Fatalf("%s: fused loop taken = %v, want %v", name, fused, want)
				}
			}
		}
	}
}

// TestRowsMixedRowsTakeGenericLoop: one row of another family, degree or
// range disqualifies the whole set from the fused loop, and the generic loop
// still matches scalar Hash — including a range wider than the width, which
// reduces modulo the width.
func TestRowsMixedRowsTakeGenericLoop(t *testing.T) {
	const width = 1024
	keys := edgeKeys(xrand.New(19), 300)
	r := xrand.New(23)
	poly2 := func() Hasher { return NewPolyHash(r, 2, width) }
	for name, hashers := range map[string][]Hasher{
		"tabulation-row":  {poly2(), poly2(), NewTabulation(r, width), poly2()},
		"poly4-row":       {poly2(), NewPolyHash(r, 4, width), poly2(), poly2(), poly2()},
		"poly1-row":       {NewPolyHash(r, 1, width), poly2()},
		"wider-range-row": {poly2(), poly2(), poly2(), NewPolyHash(r, 2, 2*width)},
		"odd-range-row":   {poly2(), NewPolyHash(r, 2, 3*width+1)},
		"multiply-shift":  {NewMultiplyShift(r, width), poly2()},
		"foreign-hasher":  {poly2(), constHasher{v: 5000, m: 8192}},
	} {
		if NewRows(hashers, width).poly != nil {
			t.Fatalf("%s: a mixed row set took the fused loop", name)
		}
		requireRowsMatchScalar(t, name, hashers, width, keys)
	}
}

// refAffine61 is the polynomial family's Horner step as it was first written:
// reduce the product, add, reduce again.
func refAffine61(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	return mod61(mod61((hi<<3|lo>>61)+(lo&MersennePrime61)) + b)
}

// TestAffine61MatchesTwoReductions checks the one-reduction step against the
// two-reduction form on every combination of extremal operands (p-1 in each
// position included) and on over a million random ones.
func TestAffine61MatchesTwoReductions(t *testing.T) {
	const p = MersennePrime61
	edges := []uint64{0, 1, 2, 3, 1 << 30, 1<<60 - 1, 1 << 60, 1<<60 + 1, p - 3, p - 2, p - 1}
	for _, a := range edges {
		for _, x := range edges {
			for _, b := range edges {
				if got, want := affine61(a, x, b), refAffine61(a, x, b); got != want {
					t.Fatalf("affine61(%d, %d, %d) = %d, two reductions give %d", a, x, b, got, want)
				}
			}
		}
	}
	r := xrand.New(29)
	for i := 0; i < 1<<20; i++ {
		a, x, b := r.Uint64n(p), r.Uint64n(p), r.Uint64n(p)
		if i%8 == 0 {
			a = edges[r.Uint64n(uint64(len(edges)))] // random against extremal, too
		}
		got, want := affine61(a, x, b), refAffine61(a, x, b)
		if got != want || got >= p {
			t.Fatalf("affine61(%d, %d, %d) = %d, two reductions give %d", a, x, b, got, want)
		}
	}
}
