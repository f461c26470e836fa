package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stream"
	"repro/internal/xrand"
)

func TestCountMinNeverUnderestimates(t *testing.T) {
	r := xrand.New(1)
	cm := NewCountMin(r, 256, 4)
	s := stream.Zipf(r, 10000, 50000, 1.1)
	exact := stream.NewExactCounter()
	for _, u := range s.Updates {
		cm.Update(u.Item, float64(u.Delta))
		exact.Update(u.Item, u.Delta)
	}
	for _, ic := range exact.TopK(200) {
		if est := cm.Estimate(ic.Item); est < float64(ic.Count)-1e-9 {
			t.Fatalf("CountMin underestimated item %d: %v < %d", ic.Item, est, ic.Count)
		}
	}
}

func TestCountMinErrorBound(t *testing.T) {
	// With width w, the expected overestimate per row is N/w; the min over
	// depth rows should keep most items within about 3*e*N/w.
	r := xrand.New(2)
	const width, depth = 512, 5
	cm := NewCountMin(r, width, depth)
	s := stream.Zipf(r, 100000, 100000, 1.05)
	exact := stream.NewExactCounter()
	for _, u := range s.Updates {
		cm.Update(u.Item, float64(u.Delta))
		exact.Update(u.Item, u.Delta)
	}
	n := float64(exact.Total())
	bound := 3 * math.E * n / width
	bad := 0
	checked := 0
	for _, ic := range exact.TopK(500) {
		checked++
		if cm.Estimate(ic.Item)-float64(ic.Count) > bound {
			bad++
		}
	}
	if bad > checked/20 {
		t.Errorf("CountMin exceeded error bound for %d/%d items", bad, checked)
	}
}

func TestCountMinExactWhenNoCollisions(t *testing.T) {
	// With far more counters than distinct items, estimates should usually
	// be exact; at the very least they equal the exact count for every item
	// when each item lands in a private bucket in at least one row.
	r := xrand.New(3)
	cm := NewCountMin(r, 4096, 6)
	exact := map[uint64]float64{}
	for i := uint64(0); i < 20; i++ {
		delta := float64(i + 1)
		cm.Update(i, delta)
		exact[i] += delta
	}
	for item, want := range exact {
		if got := cm.Estimate(item); math.Abs(got-want) > 1e-9 {
			t.Errorf("item %d: estimate %v, want %v", item, got, want)
		}
	}
}

func TestCountMinWithErrorSizing(t *testing.T) {
	cm := NewCountMinWithError(xrand.New(1), 0.01, 0.05)
	if float64(cm.Width()) < math.E/0.01-1 {
		t.Errorf("width %d too small for eps=0.01", cm.Width())
	}
	if cm.Depth() < 3 {
		t.Errorf("depth %d too small for delta=0.05", cm.Depth())
	}
	if cm.Size() != cm.Width()*cm.Depth() {
		t.Errorf("Size() inconsistent")
	}
}

func TestCountMinPanics(t *testing.T) {
	r := xrand.New(1)
	cases := []func(){
		func() { NewCountMin(r, 0, 1) },
		func() { NewCountMin(r, 1, 0) },
		func() { NewCountMinWithError(r, 0, 0.1) },
		func() { NewCountMinWithError(r, 0.1, 1.5) },
		func() { NewCountMin(r, 8, 2, WithConservativeUpdate()).Update(1, -1) },
		func() { NewCountMin(r, 8, 2).RowBucket(5, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCountMinTurnstileDeletions(t *testing.T) {
	r := xrand.New(5)
	cm := NewCountMin(r, 512, 5)
	s, residual := stream.Turnstile(r, 5000, 100, 20)
	for _, u := range s.Updates {
		cm.Update(u.Item, float64(u.Delta))
	}
	// For the turnstile model CM estimates the residual count (still an
	// overestimate in expectation for non-negative residual vectors).
	for item, want := range residual {
		if est := cm.Estimate(item); est < float64(want)-1e-9 {
			t.Errorf("turnstile CM underestimated item %d: %v < %d", item, est, want)
		}
	}
}

func TestConservativeUpdateNotWorse(t *testing.T) {
	r := xrand.New(7)
	seedHashes := xrand.New(99)
	plain := NewCountMin(seedHashes, 128, 4)
	seedHashes = xrand.New(99)
	cons := NewCountMin(seedHashes, 128, 4, WithConservativeUpdate())
	s := stream.Zipf(r, 5000, 30000, 1.0)
	exact := stream.NewExactCounter()
	for _, u := range s.Updates {
		plain.Update(u.Item, float64(u.Delta))
		cons.Update(u.Item, float64(u.Delta))
		exact.Update(u.Item, u.Delta)
	}
	var plainErr, consErr float64
	for _, ic := range exact.TopK(300) {
		plainErr += plain.Estimate(ic.Item) - float64(ic.Count)
		consErr += cons.Estimate(ic.Item) - float64(ic.Count)
		// Conservative update must still never underestimate.
		if cons.Estimate(ic.Item) < float64(ic.Count)-1e-9 {
			t.Fatalf("conservative CM underestimated item %d", ic.Item)
		}
	}
	if consErr > plainErr+1e-9 {
		t.Errorf("conservative update error %.1f worse than plain %.1f", consErr, plainErr)
	}
}

func TestCountMinMergeEqualsSingleSketch(t *testing.T) {
	r := xrand.New(9)
	base := NewCountMin(r, 256, 4)
	part1 := base.Clone()
	part2 := base.Clone()
	s := stream.Zipf(r, 2000, 20000, 1.1)
	for i, u := range s.Updates {
		base.Update(u.Item, float64(u.Delta))
		if i%2 == 0 {
			part1.Update(u.Item, float64(u.Delta))
		} else {
			part2.Update(u.Item, float64(u.Delta))
		}
	}
	if err := part1.Merge(part2); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	for item := uint64(0); item < 2000; item += 37 {
		if math.Abs(part1.Estimate(item)-base.Estimate(item)) > 1e-9 {
			t.Fatalf("merged estimate differs from single-sketch estimate for item %d", item)
		}
	}
	if math.Abs(part1.TotalMass()-base.TotalMass()) > 1e-9 {
		t.Errorf("merged total mass %v != %v", part1.TotalMass(), base.TotalMass())
	}
}

func TestCountMinMergeErrors(t *testing.T) {
	r := xrand.New(1)
	a := NewCountMin(r, 16, 2)
	b := NewCountMin(r, 32, 2)
	if err := a.Merge(b); err == nil {
		t.Error("merging different dimensions should fail")
	}
	c := NewCountMin(r, 16, 2, WithConservativeUpdate())
	if err := c.Merge(c.Clone()); err == nil {
		t.Error("merging conservative sketches should fail")
	}
	if _, err := a.InnerProduct(b); err == nil {
		t.Error("inner product with different dimensions should fail")
	}
}

func TestCountMinInnerProduct(t *testing.T) {
	r := xrand.New(11)
	a := NewCountMin(r, 1024, 5)
	b := a.Clone()
	// Two small known vectors.
	xa := map[uint64]float64{1: 10, 2: 5, 3: 1}
	xb := map[uint64]float64{1: 2, 3: 4, 9: 7}
	for item, v := range xa {
		a.Update(item, v)
	}
	for item, v := range xb {
		b.Update(item, v)
	}
	got, err := a.InnerProduct(b)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0*2 + 1.0*4 // items 1 and 3 overlap
	// Inner product via CM overestimates; with this much slack it should be close.
	if got < want-1e-9 || got > want+5 {
		t.Errorf("InnerProduct = %v, want about %v", got, want)
	}
}

// Property: Count-Min is linear — updating with delta1 then delta2 equals a
// single update of delta1+delta2, for every counter.
func TestCountMinLinearityProperty(t *testing.T) {
	r := xrand.New(13)
	base := NewCountMin(r, 64, 3)
	f := func(item uint64, d1, d2 int16) bool {
		a := base.Clone()
		a.Update(item, float64(d1))
		a.Update(item, float64(d2))
		b := base.Clone()
		b.Update(item, float64(d1)+float64(d2))
		ca, cb := a.CounterData(), b.CounterData()
		for j := range ca {
			if math.Abs(ca[j]-cb[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountMinFamilyOption(t *testing.T) {
	r := xrand.New(15)
	cm := NewCountMin(r, 64, 3, WithCountMinHashFamily(0))
	cm.Update(7, 3)
	if cm.Estimate(7) < 3 {
		t.Error("estimate after update too small")
	}
}

func BenchmarkCountMinUpdate(b *testing.B) {
	cm := NewCountMin(xrand.New(1), 2048, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Update(uint64(i), 1)
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	cm := NewCountMin(xrand.New(1), 2048, 4)
	for i := 0; i < 100000; i++ {
		cm.Update(uint64(i%1000), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Estimate(uint64(i % 1000))
	}
}
