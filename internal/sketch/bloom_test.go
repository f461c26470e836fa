package sketch

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/xrand"
)

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	r := xrand.New(1)
	bf := NewBloomFilterForItems(r, 1000, 0.01)
	for i := uint64(0); i < 1000; i++ {
		bf.Add(i * 7919)
	}
	for i := uint64(0); i < 1000; i++ {
		if !bf.Contains(i * 7919) {
			t.Fatalf("false negative for inserted item %d", i*7919)
		}
	}
	if bf.Count() != 1000 {
		t.Errorf("Count = %d", bf.Count())
	}
}

func TestBloomFilterFalsePositiveRate(t *testing.T) {
	r := xrand.New(2)
	bf := NewBloomFilterForItems(r, 2000, 0.02)
	for i := uint64(0); i < 2000; i++ {
		bf.Add(i)
	}
	fp := 0
	const probes = 20000
	for i := uint64(1 << 40); i < (1<<40)+probes; i++ {
		if bf.Contains(i) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.08 {
		t.Errorf("false positive rate %.4f far above target 0.02", rate)
	}
	if est := bf.EstimatedFalsePositiveRate(); est > 0.05 {
		t.Errorf("analytic false positive rate %.4f unexpectedly high", est)
	}
}

func TestBloomFilterSizing(t *testing.T) {
	r := xrand.New(3)
	bf := NewBloomFilterForItems(r, 1000, 0.01)
	// Theory: m about 9.6 bits/item, k about 7 for p=1%.
	if bf.Bits() < 8000 || bf.Bits() > 12000 {
		t.Errorf("Bits() = %d, want about 9600", bf.Bits())
	}
	if bf.HashCount() < 5 || bf.HashCount() > 9 {
		t.Errorf("HashCount() = %d, want about 7", bf.HashCount())
	}
}

func TestBloomFilterPanics(t *testing.T) {
	r := xrand.New(1)
	for _, f := range []func(){
		func() { NewBloomFilter(r, 0, 1) },
		func() { NewBloomFilter(r, 10, 0) },
		func() { NewBloomFilterForItems(r, 0, 0.1) },
		func() { NewBloomFilterForItems(r, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSpectralBloomNeverUnderestimates(t *testing.T) {
	r := xrand.New(5)
	sb := NewSpectralBloom(r, 4096, 4)
	exact := map[uint64]float64{}
	z := xrand.NewZipf(r, 500, 1.2)
	for i := 0; i < 20000; i++ {
		item := uint64(z.Next())
		sb.Add(item, 1)
		exact[item]++
	}
	if sb.Total() != 20000 {
		t.Errorf("Total = %v", sb.Total())
	}
	for item, want := range exact {
		if got := sb.Estimate(item); got < want-1e-9 {
			t.Fatalf("spectral bloom underestimated item %d: %v < %v", item, got, want)
		}
	}
}

func TestSpectralBloomAccurateWhenSparse(t *testing.T) {
	r := xrand.New(7)
	sb := NewSpectralBloom(r, 8192, 4)
	for i := uint64(0); i < 10; i++ {
		sb.Add(i, float64(i+1))
	}
	for i := uint64(0); i < 10; i++ {
		if got, want := sb.Estimate(i), float64(i+1); got != want {
			t.Errorf("Estimate(%d) = %v, want %v", i, got, want)
		}
	}
	if sb.Size() != 8192 {
		t.Errorf("Size = %d", sb.Size())
	}
}

func TestSpectralBloomPanics(t *testing.T) {
	r := xrand.New(1)
	for _, f := range []func(){
		func() { NewSpectralBloom(r, 0, 1) },
		func() { NewSpectralBloom(r, 8, 0) },
		func() { NewSpectralBloom(r, 8, 2).Add(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// forgedBloomBody is a well-formed one-word filter encoding that claims k
// hash functions (the input FuzzUnmarshalBinary found with k = 800M).
func forgedBloomBody(t *testing.T, k uint32) []byte {
	t.Helper()
	body, err := NewBloomFilter(xrand.New(1), 64, 1).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(body[6+8:], k) // header, bit count, then k
	return body
}

// TestBloomDecoderCapsHashCount: the decoder builds every hash function
// before it reads a payload byte, so a forged hash count must be refused
// before that work is done — and a legitimate filter must still round-trip.
func TestBloomDecoderCapsHashCount(t *testing.T) {
	for _, k := range []uint32{65, 800_000_000, 1 << 30} {
		start := time.Now()
		var bf BloomFilter
		if err := bf.UnmarshalBinary(forgedBloomBody(t, k)); err == nil {
			t.Fatalf("k=%d over 64 bits decoded", k)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("refusing k=%d took %v", k, d)
		}
	}
	var edge BloomFilter
	if err := edge.UnmarshalBinary(forgedBloomBody(t, 64)); err != nil {
		t.Fatalf("k=64 over 64 bits refused: %v", err)
	}

	legit := NewBloomFilter(xrand.New(2), 997, 7)
	for i := uint64(0); i < 100; i++ {
		legit.Add(i)
	}
	enc, err := legit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back BloomFilter
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("legitimate filter refused: %v", err)
	}
	for i := uint64(0); i < 100; i++ {
		if !back.Contains(i) {
			t.Fatalf("decoded filter lost item %d", i)
		}
	}
}
