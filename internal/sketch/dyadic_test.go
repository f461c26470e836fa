package sketch

import (
	"math"
	"testing"

	"repro/internal/stream"
	"repro/internal/xrand"
)

func TestDyadicPointAndRange(t *testing.T) {
	r := xrand.New(1)
	d := NewDyadic(r, 10, 512, 4) // universe 1024
	exact := make([]float64, 1024)
	z := xrand.NewZipf(r, 1024, 1.1)
	for i := 0; i < 20000; i++ {
		item := uint64(z.Next())
		d.Update(item, 1)
		exact[item]++
	}
	// Point queries never underestimate.
	for item := uint64(0); item < 1024; item += 17 {
		if est := d.Estimate(item); est < exact[item]-1e-9 {
			t.Fatalf("point estimate underestimates item %d", item)
		}
	}
	// Range queries never underestimate and are reasonably tight.
	ranges := [][2]uint64{{0, 1023}, {0, 0}, {100, 300}, {512, 767}, {5, 6}}
	for _, rg := range ranges {
		var truth float64
		for i := rg[0]; i <= rg[1]; i++ {
			truth += exact[i]
		}
		est := d.RangeSum(rg[0], rg[1])
		if est < truth-1e-9 {
			t.Errorf("RangeSum(%d,%d) = %v underestimates %v", rg[0], rg[1], est, truth)
		}
		if est > truth+0.3*float64(20000)+1 {
			t.Errorf("RangeSum(%d,%d) = %v wildly overestimates %v", rg[0], rg[1], est, truth)
		}
	}
	if d.TotalMass() != 20000 {
		t.Errorf("TotalMass = %v", d.TotalMass())
	}
	if d.Universe() != 1024 || d.LogUniverse() != 10 {
		t.Errorf("Universe/LogUniverse wrong")
	}
	if d.SizeCounters() != 11*512*4 {
		t.Errorf("SizeCounters = %d", d.SizeCounters())
	}
}

func TestDyadicFullRangeEqualsTotal(t *testing.T) {
	r := xrand.New(2)
	d := NewDyadic(r, 8, 128, 3)
	for i := 0; i < 5000; i++ {
		d.Update(uint64(i%256), 1)
	}
	got := d.RangeSum(0, 255)
	if math.Abs(got-5000) > 1e-6 {
		t.Errorf("full-range sum %v, want 5000", got)
	}
}

func TestDyadicHeavyHitters(t *testing.T) {
	r := xrand.New(3)
	d := NewDyadicForUniverse(r, 1<<16, 1024, 5)
	s, planted := stream.PlantedHeavyHitters(r, 1<<16, 50000, 8, 0.6)
	for _, u := range s.Updates {
		d.Update(u.Item, float64(u.Delta))
	}
	hh := d.HeavyHitters(0.05)
	found := map[uint64]bool{}
	for _, ic := range hh {
		found[ic.Item] = true
	}
	for _, p := range planted {
		if !found[p] {
			t.Errorf("planted heavy hitter %d not found (result %v)", p, hh)
		}
	}
	// False positives should be limited: every reported item's estimate is
	// at least the threshold by construction, so just sanity-check size.
	if len(hh) > 100 {
		t.Errorf("unreasonably many heavy hitters reported: %d", len(hh))
	}
}

func TestDyadicQuantile(t *testing.T) {
	r := xrand.New(4)
	d := NewDyadic(r, 12, 2048, 5) // universe 4096
	// Uniform counts on [0, 4095]: each item appears once.
	for i := uint64(0); i < 4096; i++ {
		d.Update(i, 1)
	}
	for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		q := d.Quantile(phi)
		want := phi * 4096
		if math.Abs(float64(q)-want) > 300 {
			t.Errorf("Quantile(%.2f) = %d, want about %.0f", phi, q, want)
		}
	}
	// Clamping.
	if q := d.Quantile(-1); q > 100 {
		t.Errorf("Quantile(-1) = %d, want near 0", q)
	}
	if q := d.Quantile(2); q < 4000 {
		t.Errorf("Quantile(2) = %d, want near 4095", q)
	}
}

// TestDyadicCloneMergeIsExact: the clone/merge law applied level-wise — two
// clones sketch disjoint halves and the merge answers every point, range and
// quantile query exactly as the sketch that saw the whole stream.
func TestDyadicCloneMergeIsExact(t *testing.T) {
	proto := NewDyadic(xrand.New(31), 12, 256, 4)
	single := proto.Clone()
	shardA := proto.Clone()
	shardB := proto.Clone()

	s := stream.Zipf(xrand.New(32), 1<<12, 30_000, 1.1)
	for i, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
		if i%2 == 0 {
			shardA.Update(u.Item, float64(u.Delta))
		} else {
			shardB.Update(u.Item, float64(u.Delta))
		}
	}
	if err := shardA.CompatibleWith(shardB); err != nil {
		t.Fatalf("clones of one prototype must be compatible: %v", err)
	}
	if err := shardA.Merge(shardB); err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 1<<12; item += 13 {
		if a, b := single.Estimate(item), shardA.Estimate(item); a != b {
			t.Fatalf("estimate(%d): single %v != merged %v", item, a, b)
		}
	}
	for _, rg := range [][2]uint64{{0, (1 << 12) - 1}, {100, 300}, {7, 7}} {
		if a, b := single.RangeSum(rg[0], rg[1]), shardA.RangeSum(rg[0], rg[1]); a != b {
			t.Fatalf("RangeSum(%d,%d): single %v != merged %v", rg[0], rg[1], a, b)
		}
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		if a, b := single.Quantile(phi), shardA.Quantile(phi); a != b {
			t.Fatalf("Quantile(%v): single %v != merged %v", phi, a, b)
		}
	}
	if single.TotalMass() != shardA.TotalMass() {
		t.Fatalf("total mass %v != %v", shardA.TotalMass(), single.TotalMass())
	}
}

// TestDyadicMergeRejectsMismatch: merges across different universes or level
// dimensions must fail up front without touching any counter.
func TestDyadicMergeRejectsMismatch(t *testing.T) {
	d := NewDyadic(xrand.New(41), 8, 128, 3)
	d.Update(5, 2)
	before := d.Estimate(5)

	if err := d.Merge(NewDyadic(xrand.New(41), 9, 128, 3)); err == nil {
		t.Error("universe mismatch: expected error")
	}
	if err := d.Merge(NewDyadic(xrand.New(41), 8, 64, 3)); err == nil {
		t.Error("level dimension mismatch: expected error")
	}
	if err := d.CompatibleWith(NewDyadic(xrand.New(42), 8, 128, 3)); err == nil {
		t.Error("foreign hash seed: expected CompatibleWith error")
	}
	if d.Estimate(5) != before {
		t.Error("rejected merge modified the counters")
	}
}

func TestDyadicPanics(t *testing.T) {
	r := xrand.New(1)
	for _, f := range []func(){
		func() { NewDyadic(r, 0, 8, 2) },
		func() { NewDyadic(r, 64, 8, 2) },
		func() { NewDyadic(r, 4, 8, 2).Update(16, 1) },
		func() { NewDyadic(r, 4, 8, 2).RangeSum(5, 3) },
		func() { NewDyadic(r, 4, 8, 2).RangeSum(0, 99) },
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

func TestLog2Ceil(t *testing.T) {
	cases := []struct {
		in   uint64
		want int
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := log2Ceil(c.in); got != c.want {
			t.Errorf("log2Ceil(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestHeavyHitterTracker(t *testing.T) {
	r := xrand.New(5)
	tracker := NewHeavyHitterTracker(r, 1024, 4, 20)
	s, planted := stream.PlantedHeavyHitters(r, 1<<20, 40000, 5, 0.5)
	exact := stream.NewExactCounter()
	for _, u := range s.Updates {
		tracker.Update(u.Item, float64(u.Delta))
		exact.Update(u.Item, u.Delta)
	}
	top := tracker.TopK()
	if len(top) > 20 {
		t.Fatalf("TopK returned %d items, tracker capacity 20", len(top))
	}
	inTop := map[uint64]bool{}
	for _, ic := range top {
		inTop[ic.Item] = true
	}
	for _, p := range planted {
		if !inTop[p] {
			t.Errorf("planted item %d missing from tracker top-k", p)
		}
	}
	hh := tracker.HeavyHitters(0.05)
	if len(hh) < len(planted) {
		t.Errorf("HeavyHitters found %d, want at least %d", len(hh), len(planted))
	}
	for _, ic := range hh {
		if tracker.Estimate(ic.Item) < float64(exact.Count(ic.Item))-1e-9 {
			t.Errorf("tracker estimate underestimates item %d", ic.Item)
		}
	}
	if tracker.SpaceCounters() != 1024*4 {
		t.Errorf("SpaceCounters = %d", tracker.SpaceCounters())
	}
}

func TestHeavyHitterTrackerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHeavyHitterTracker(xrand.New(1), 8, 2, 0)
}

func BenchmarkDyadicUpdate(b *testing.B) {
	d := NewDyadic(xrand.New(1), 20, 1024, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(uint64(i)&((1<<20)-1), 1)
	}
}
