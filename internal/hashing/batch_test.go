package hashing

import (
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
