package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stream"
	"repro/internal/xrand"
)

func TestCountSketchRecoversExactWithoutCollisions(t *testing.T) {
	r := xrand.New(1)
	cs := NewCountSketch(r, 4096, 5)
	exact := map[uint64]float64{}
	for i := uint64(0); i < 30; i++ {
		v := float64(i) - 10 // include negatives (turnstile)
		cs.Update(i, v)
		exact[i] += v
	}
	for item, want := range exact {
		if got := cs.Estimate(item); math.Abs(got-want) > 1e-9 {
			t.Errorf("item %d: estimate %v, want %v", item, got, want)
		}
	}
}

func TestCountSketchUnbiased(t *testing.T) {
	// Average the estimate of a fixed item over many independent sketches;
	// it should converge to the true count even with heavy collisions.
	trueCount := 100.0
	const trials = 300
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		r := xrand.New(uint64(trial) + 1)
		cs := NewCountSketch(r, 16, 1) // tiny sketch: lots of collisions
		cs.Update(42, trueCount)
		for i := uint64(0); i < 200; i++ {
			cs.Update(1000+i, 5)
		}
		sum += cs.Estimate(42)
	}
	avg := sum / trials
	if math.Abs(avg-trueCount) > 15 {
		t.Errorf("CountSketch estimate mean %v, want about %v (unbiasedness violated)", avg, trueCount)
	}
}

func TestCountSketchL2ErrorBound(t *testing.T) {
	r := xrand.New(3)
	const width, depth = 512, 5
	cs := NewCountSketch(r, width, depth)
	s := stream.Zipf(r, 50000, 80000, 1.1)
	exact := stream.NewExactCounter()
	for _, u := range s.Updates {
		cs.Update(u.Item, float64(u.Delta))
		exact.Update(u.Item, u.Delta)
	}
	// ||x||_2
	var l2 float64
	for _, ic := range exact.TopK(exact.DistinctItems()) {
		l2 += float64(ic.Count) * float64(ic.Count)
	}
	l2 = math.Sqrt(l2)
	bound := 4 * l2 / math.Sqrt(width)
	bad, checked := 0, 0
	for _, ic := range exact.TopK(500) {
		checked++
		if math.Abs(cs.Estimate(ic.Item)-float64(ic.Count)) > bound {
			bad++
		}
	}
	if bad > checked/10 {
		t.Errorf("CountSketch exceeded l2 error bound for %d/%d items", bad, checked)
	}
}

func TestCountSketchWithErrorSizing(t *testing.T) {
	cs := NewCountSketchWithError(xrand.New(1), 0.1, 0.05)
	if cs.Width() < 300 {
		t.Errorf("width %d too small for eps=0.1", cs.Width())
	}
	if cs.Depth()%2 == 0 {
		t.Errorf("depth %d should be odd", cs.Depth())
	}
}

func TestCountSketchPanics(t *testing.T) {
	r := xrand.New(1)
	cases := []func(){
		func() { NewCountSketch(r, 0, 1) },
		func() { NewCountSketch(r, 1, 0) },
		func() { NewCountSketchWithError(r, 0, 0.1) },
		func() { NewCountSketch(r, 8, 2).RowBucket(2, 1) },
		func() { NewCountSketch(r, 8, 2).RowSign(-1, 1) },
		func() { median(nil) },
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

func TestCountSketchMergeEqualsSingle(t *testing.T) {
	r := xrand.New(5)
	base := NewCountSketch(r, 256, 5)
	p1, p2 := base.Clone(), base.Clone()
	s := stream.Zipf(r, 3000, 20000, 1.1)
	for i, u := range s.Updates {
		base.Update(u.Item, float64(u.Delta))
		if i%2 == 0 {
			p1.Update(u.Item, float64(u.Delta))
		} else {
			p2.Update(u.Item, float64(u.Delta))
		}
	}
	if err := p1.Merge(p2); err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 3000; item += 53 {
		if math.Abs(p1.Estimate(item)-base.Estimate(item)) > 1e-9 {
			t.Fatalf("merged estimate differs for item %d", item)
		}
	}
	if err := p1.Merge(NewCountSketch(r, 128, 5)); err == nil {
		t.Error("merging different dimensions should fail")
	}
}

func TestCountSketchRowAccessors(t *testing.T) {
	r := xrand.New(7)
	cs := NewCountSketch(r, 64, 3)
	for row := 0; row < 3; row++ {
		b := cs.RowBucket(row, 99)
		if b < 0 || b >= 64 {
			t.Fatalf("RowBucket out of range: %d", b)
		}
		sgn := cs.RowSign(row, 99)
		if sgn != 1 && sgn != -1 {
			t.Fatalf("RowSign = %v", sgn)
		}
	}
	cs.Update(99, 2)
	if got := cs.EstimateRow(0, 99); math.Abs(got-2) > 1e-9 {
		t.Errorf("EstimateRow = %v, want 2 (no collisions expected with one item)", got)
	}
}

func TestMedianFunction(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1}, 2.5},
		{[]float64{1, 2, 3, 4}, 2.5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: Count-Sketch is linear in its updates.
func TestCountSketchLinearityProperty(t *testing.T) {
	r := xrand.New(11)
	base := NewCountSketch(r, 64, 3)
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

// Property: an item that was never updated and does not collide with mass in
// every row has estimate whose magnitude is bounded by the largest counter.
func TestCountSketchAbsentItemBounded(t *testing.T) {
	r := xrand.New(13)
	cs := NewCountSketch(r, 128, 5)
	for i := uint64(0); i < 1000; i++ {
		cs.Update(i, 1)
	}
	maxCounter := 0.0
	for _, v := range cs.CounterData() {
		maxCounter = max(maxCounter, math.Abs(v))
	}
	for item := uint64(10000); item < 10100; item++ {
		if est := math.Abs(cs.Estimate(item)); est > maxCounter+1e-9 {
			t.Fatalf("absent item estimate %v exceeds max counter %v", est, maxCounter)
		}
	}
}

func BenchmarkCountSketchUpdate(b *testing.B) {
	cs := NewCountSketch(xrand.New(1), 2048, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Update(uint64(i), 1)
	}
}

func BenchmarkCountSketchEstimate(b *testing.B) {
	cs := NewCountSketch(xrand.New(1), 2048, 5)
	for i := 0; i < 100000; i++ {
		cs.Update(uint64(i%1000), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Estimate(uint64(i % 1000))
	}
}
