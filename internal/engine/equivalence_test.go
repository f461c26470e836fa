package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// Cross-mode equivalence -------------------------------------------------------
//
// Partition mode's whole contract is "same bits, less memory": for the same
// stream and seed, every counter-derived read must match replica mode and the
// single-threaded sketch exactly. These tests pin that with randomized
// configurations — family, shape, worker count, batch size, update schedule
// (including negative deltas) and mid-stream Snapshot cuts, each with the
// delta against the previous cut.
// Deltas are halves, so float64 counter sums are exact and "equal" means
// bit-for-bit, not within-epsilon.

// schedule is one randomized trial: a stream plus the positions (in updates
// applied) at which each mode must cut a Snapshot and its delta.
type schedule struct {
	items  []uint64
	deltas []float64
	cuts   []int // strictly increasing, each < len(items)
}

func randomSchedule(r *xrand.Rand, universe uint64, n, cuts int) schedule {
	s := schedule{
		items:  make([]uint64, n),
		deltas: make([]float64, n),
	}
	for i := range s.items {
		s.items[i] = r.Uint64n(universe)
		// Halves in [-4, 4]: exactly representable, exactly summable, and
		// negative often enough to exercise the turnstile path.
		s.deltas[i] = float64(int(r.Uint64n(17))-8) / 2
	}
	pos := map[int]bool{}
	for len(pos) < cuts {
		pos[1+r.Intn(n-1)] = true
	}
	for p := range pos {
		s.cuts = append(s.cuts, p)
	}
	for i := range s.cuts { // insertion sort; cuts is tiny
		for j := i; j > 0 && s.cuts[j] < s.cuts[j-1]; j-- {
			s.cuts[j], s.cuts[j-1] = s.cuts[j-1], s.cuts[j]
		}
	}
	return s
}

// modeRun is everything one mode produced from a schedule: the encoded
// snapshot and delta at every cut, and the final Close replica.
type modeRun[S any] struct {
	snaps  [][]byte
	deltas [][]byte
	final  S
}

// cutDelta encodes snap − base, the window between two cuts.
type cutDelta[S any] func(snap, base S) ([]byte, error)

// subDelta is the cutDelta of a family without a streamed cutter: the
// sketch's own Copy and Sub, then the plain encoding.
func subDelta[S interface {
	LinearSketch[S]
	Copy() S
	Sub(S) error
}](snap, base S) ([]byte, error) {
	d := snap.Copy()
	if err := d.Sub(base); err != nil {
		return nil, err
	}
	return d.MarshalBinary()
}

// runEngine drives one engine through the schedule, cutting a Snapshot and
// its delta at exactly each cut position (baseline = previous cut's snapshot,
// initially the empty prototype) — the way the daemon's replicator cuts a
// frame. The stream is fed in segments ending at the cuts so every mode
// snapshots after the same number of applied updates; within a segment the
// engine batches by its own BatchSize.
func runEngine[S LinearSketch[S]](t *testing.T, eng *Engine[S], proto S, s schedule, delta cutDelta[S]) modeRun[S] {
	t.Helper()
	var run modeRun[S]
	baseline := proto.Clone()
	prev := 0
	for _, cut := range append(append([]int(nil), s.cuts...), len(s.items)) {
		eng.UpdateColumns(s.items[prev:cut], s.deltas[prev:cut])
		prev = cut
		if cut == len(s.items) {
			break
		}
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at %d: %v", cut, err)
		}
		sb, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal snapshot: %v", err)
		}
		db, err := delta(snap, baseline)
		if err != nil {
			t.Fatalf("delta at %d: %v", cut, err)
		}
		run.snaps = append(run.snaps, sb)
		run.deltas = append(run.deltas, db)
		baseline = snap
	}
	final, err := eng.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	run.final = final
	return run
}

// runReference replays the schedule single-threaded on a bare sketch,
// producing the same cut artifacts. cp works around the lack of a Copy
// method in LinearSketch.
func runReference[S LinearSketch[S]](t *testing.T, proto S, s schedule, cp func(S) S, delta cutDelta[S]) modeRun[S] {
	t.Helper()
	var run modeRun[S]
	ref := proto.Clone()
	baseline := proto.Clone()
	next := 0
	for i := range s.items {
		ref.Update(s.items[i], s.deltas[i])
		for next < len(s.cuts) && i+1 >= s.cuts[next] {
			snap := cp(ref)
			sb, err := snap.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal reference snapshot: %v", err)
			}
			db, err := delta(snap, baseline)
			if err != nil {
				t.Fatalf("reference delta: %v", err)
			}
			run.snaps = append(run.snaps, sb)
			run.deltas = append(run.deltas, db)
			baseline = snap
			next++
		}
	}
	run.final = ref
	return run
}

// checkRuns compares the three modes' artifacts. Snapshot and delta bytes
// must agree byte-for-byte at every cut (the encodings serialize counters,
// mass and seeds — byte equality IS bit-identity); the finals are compared by
// the caller's family-specific check (tracker bytes include the heuristic
// candidate set, so its runner compares counter-derived reads instead).
func checkRuns[S any](t *testing.T, label string, ref, rep, part modeRun[S], finalEqual func(a, b S) error) {
	t.Helper()
	for i := range ref.snaps {
		if !bytes.Equal(ref.snaps[i], rep.snaps[i]) {
			t.Fatalf("%s: replica snapshot %d differs from single-threaded reference", label, i)
		}
		if !bytes.Equal(ref.snaps[i], part.snaps[i]) {
			t.Fatalf("%s: partitioned snapshot %d differs from single-threaded reference", label, i)
		}
		if !bytes.Equal(ref.deltas[i], rep.deltas[i]) {
			t.Fatalf("%s: replica delta %d differs from single-threaded reference", label, i)
		}
		if !bytes.Equal(ref.deltas[i], part.deltas[i]) {
			t.Fatalf("%s: partitioned delta %d differs from single-threaded reference", label, i)
		}
	}
	if err := finalEqual(ref.final, rep.final); err != nil {
		t.Fatalf("%s: replica final: %v", label, err)
	}
	if err := finalEqual(ref.final, part.final); err != nil {
		t.Fatalf("%s: partitioned final: %v", label, err)
	}
}

// bytesEqualFinal compares finals by their binary encoding.
func bytesEqualFinal[S LinearSketch[S]](a, b S) error {
	ab, err := a.MarshalBinary()
	if err != nil {
		return err
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		return err
	}
	if !bytes.Equal(ab, bb) {
		return fmt.Errorf("encoded finals differ")
	}
	return nil
}

// TestCrossModeEquivalence is the property test: randomized configurations,
// each run through partition mode, replica mode and a single-threaded
// reference, asserting all artifacts identical. CI runs it twice under -race.
func TestCrossModeEquivalence(t *testing.T) {
	r := xrand.New(0xE9)
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		width := 8 + int(r.Uint64n(150))
		depth := 1 + int(r.Uint64n(5))
		workers := 1 + int(r.Uint64n(8))
		batch := 1 + int(r.Uint64n(300))
		n := 2_000 + int(r.Uint64n(8_000))
		universe := uint64(1) << (8 + r.Uint64n(12))
		sched := randomSchedule(r, universe, n, 3)
		family := int(r.Uint64n(4))
		seed := r.Uint64()

		repCfg := Config{Workers: workers, BatchSize: batch}
		partCfg := Config{Workers: workers, BatchSize: batch, Partition: true}
		label := fmt.Sprintf("trial=%d family=%d w=%d d=%d workers=%d batch=%d n=%d", trial, family, width, depth, workers, batch, n)

		switch family {
		case 0:
			proto := sketch.NewCountMin(xrand.New(seed), width, depth)
			delta := func(snap, base *sketch.CountMin) ([]byte, error) { return snap.AppendDeltaSince(nil, base) }
			ref := runReference(t, proto, sched, func(s *sketch.CountMin) *sketch.CountMin { return s.Copy() }, delta)
			rep := runEngine(t, NewCountMin(repCfg, proto), proto, sched, delta)
			part := runEngine(t, NewCountMin(partCfg, proto), proto, sched, delta)
			checkRuns(t, label, ref, rep, part, bytesEqualFinal)
		case 1:
			proto := sketch.NewCountSketch(xrand.New(seed), width, depth)
			ref := runReference(t, proto, sched, func(s *sketch.CountSketch) *sketch.CountSketch { return s.Copy() }, subDelta)
			rep := runEngine(t, NewCountSketch(repCfg, proto), proto, sched, subDelta)
			part := runEngine(t, NewCountSketch(partCfg, proto), proto, sched, subDelta)
			checkRuns(t, label, ref, rep, part, bytesEqualFinal)
		case 2:
			logU := 6 + int(r.Uint64n(6))
			sched := randomSchedule(r, uint64(1)<<logU, n, 3)
			proto := sketch.NewDyadic(xrand.New(seed), logU, width, depth)
			ref := runReference(t, proto, sched, func(s *sketch.Dyadic) *sketch.Dyadic { return s.Copy() }, subDelta)
			rep := runEngine(t, NewDyadic(repCfg, proto), proto, sched, subDelta)
			part := runEngine(t, NewDyadic(partCfg, proto), proto, sched, subDelta)
			checkRuns(t, label, ref, rep, part, bytesEqualFinal)
		case 3:
			k := 4 + int(r.Uint64n(12))
			proto := sketch.NewHeavyHitterTracker(xrand.New(seed), width, depth, k)
			ref := runTrackerReference(t, proto, sched)
			rep := runTrackerEngine(t, NewTracker(repCfg, proto), proto, sched)
			part := runTrackerEngine(t, NewTracker(partCfg, proto), proto, sched)
			checkTrackerRuns(t, label, universe, ref, rep, part)
		}
	}
}

// Tracker runs compare counter-derived reads, not bytes: the tracker
// encoding includes its candidate set, which is heuristic in every mode
// (replica merges union and re-score too). What must be bit-identical is the
// backing Count-Min — counters, mass, estimates.
type trackerRun struct {
	snaps  []*sketch.HeavyHitterTracker
	deltas []*sketch.HeavyHitterTracker
	final  *sketch.HeavyHitterTracker
}

func runTrackerEngine(t *testing.T, eng *Engine[*sketch.HeavyHitterTracker], proto *sketch.HeavyHitterTracker, s schedule) trackerRun {
	t.Helper()
	var run trackerRun
	baseline := proto.Clone()
	prev := 0
	for _, cut := range append(append([]int(nil), s.cuts...), len(s.items)) {
		eng.UpdateColumns(s.items[prev:cut], s.deltas[prev:cut])
		prev = cut
		if cut == len(s.items) {
			break
		}
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("tracker snapshot: %v", err)
		}
		run.snaps = append(run.snaps, snap)
		run.deltas = append(run.deltas, trackerDelta(t, eng, snap, baseline))
		baseline = snap
	}
	final, err := eng.Close()
	if err != nil {
		t.Fatalf("tracker close: %v", err)
	}
	run.final = final
	return run
}

// trackerDelta cuts snap − baseline the way the daemon's replicator does
// (AppendDeltaSince) and decodes it the way its receiver does (the envelope
// expanded, then the engine's DecodeReplica).
func trackerDelta(t *testing.T, eng *Engine[*sketch.HeavyHitterTracker], snap, baseline *sketch.HeavyHitterTracker) *sketch.HeavyHitterTracker {
	t.Helper()
	wire, err := snap.AppendDeltaSince(nil, baseline)
	if err != nil {
		t.Fatalf("tracker delta: %v", err)
	}
	inner, err := sketch.DecodeDelta(wire)
	if err != nil {
		t.Fatalf("tracker delta envelope: %v", err)
	}
	delta, err := eng.DecodeReplica(inner)
	if err != nil {
		t.Fatalf("tracker delta decode: %v", err)
	}
	return delta
}

func runTrackerReference(t *testing.T, proto *sketch.HeavyHitterTracker, s schedule) trackerRun {
	t.Helper()
	var run trackerRun
	ref := proto.Clone()
	baseline := proto.Clone()
	next := 0
	for i := range s.items {
		ref.Update(s.items[i], s.deltas[i])
		for next < len(s.cuts) && i+1 >= s.cuts[next] {
			snap := ref.Copy()
			delta := ref.Copy()
			if err := delta.Sub(baseline); err != nil {
				t.Fatalf("tracker reference sub: %v", err)
			}
			run.snaps = append(run.snaps, snap)
			run.deltas = append(run.deltas, delta)
			baseline = snap
			next++
		}
	}
	run.final = ref
	return run
}

func trackersCounterEqual(a, b *sketch.HeavyHitterTracker, universe uint64) error {
	if !countersEqual(a.Backing().Counters(), b.Backing().Counters()) {
		return fmt.Errorf("backing counters differ")
	}
	if a.TotalMass() != b.TotalMass() {
		return fmt.Errorf("total mass %v != %v", a.TotalMass(), b.TotalMass())
	}
	for item := uint64(0); item < universe; item += 13 {
		if x, y := a.Estimate(item), b.Estimate(item); x != y {
			return fmt.Errorf("estimate(%d) %v != %v", item, x, y)
		}
	}
	return nil
}

func checkTrackerRuns(t *testing.T, label string, universe uint64, ref, rep, part trackerRun) {
	t.Helper()
	for i := range ref.snaps {
		for name, run := range map[string]trackerRun{"replica": rep, "partitioned": part} {
			if err := trackersCounterEqual(ref.snaps[i], run.snaps[i], universe); err != nil {
				t.Fatalf("%s: %s snapshot %d: %v", label, name, i, err)
			}
			if err := trackersCounterEqual(ref.deltas[i], run.deltas[i], universe); err != nil {
				t.Fatalf("%s: %s delta %d: %v", label, name, i, err)
			}
		}
	}
	if err := trackersCounterEqual(ref.final, rep.final, universe); err != nil {
		t.Fatalf("%s: replica final: %v", label, err)
	}
	if err := trackersCounterEqual(ref.final, part.final, universe); err != nil {
		t.Fatalf("%s: partitioned final: %v", label, err)
	}
}

// TestPartitionConcurrentProducersExact: the multi-producer law holds in
// partition mode — P goroutines ingesting disjoint interleaved slices of one
// stream through private handles must close to the exact single-threaded
// sketch. Under -race this is the data-race oracle for the partition
// dispatch path (scatter, dispatch lock, buffer recycling).
func TestPartitionConcurrentProducersExact(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(31), 512, 4)
	single := proto.Clone()
	s := newZipf(32, 1<<14, 120_000)
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
	}

	for _, producers := range []int{1, 2, 4, 8} {
		eng := NewCountMin(Config{Workers: 4, BatchSize: 503, Partition: true}, proto)
		var wg sync.WaitGroup
		for pid := 0; pid < producers; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				p := eng.Producer()
				defer p.Close()
				for i := pid; i < len(s.Updates); i += producers {
					u := s.Updates[i]
					p.Update(u.Item, float64(u.Delta))
				}
			}(pid)
		}
		wg.Wait()
		merged, err := eng.Close()
		if err != nil {
			t.Fatalf("producers=%d: close: %v", producers, err)
		}
		if !countersEqual(single.Counters(), merged.Counters()) {
			t.Fatalf("producers=%d: partitioned counters differ from single-threaded sketch", producers)
		}
		if single.TotalMass() != merged.TotalMass() {
			t.Fatalf("producers=%d: total mass %v != %v", producers, merged.TotalMass(), single.TotalMass())
		}
	}
}

// TestPartitionSnapshotDuringConcurrentIngest: barriers may overlap
// partitioned ingestion. Each mid-stream snapshot must be internally
// consistent — its total mass equal to the sum of whole batches (the
// dispatch lock keeps multi-shard batches atomic under the cut), and its
// counters a prefix-sum of the stream. The final close must be exact.
func TestPartitionSnapshotDuringConcurrentIngest(t *testing.T) {
	proto := sketch.NewCountMin(xrand.New(41), 256, 4)
	const batch = 64
	eng := NewCountMin(Config{Workers: 4, BatchSize: batch, Partition: true}, proto)
	s := newZipf(42, 1<<12, 80_000)

	single := proto.Clone()
	var totalMass float64
	for _, u := range s.Updates {
		single.Update(u.Item, float64(u.Delta))
		totalMass += float64(u.Delta)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := eng.Producer()
		defer p.Close()
		for _, u := range s.Updates {
			p.Update(u.Item, float64(u.Delta))
		}
	}()

	for i := 0; i < 20; i++ {
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		// Every delta in this stream is a positive integer, so a consistent
		// cut has integer mass that is a multiple of nothing in particular —
		// but it must never exceed the full stream's and never be negative.
		if m := snap.TotalMass(); m < 0 || m > totalMass {
			t.Fatalf("snapshot %d: mass %v out of range [0, %v]", i, m, totalMass)
		}
	}
	wg.Wait()

	merged, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !countersEqual(single.Counters(), merged.Counters()) {
		t.Fatal("final partitioned counters differ from single-threaded sketch")
	}
	if merged.TotalMass() != totalMass {
		t.Fatalf("final mass %v != %v", merged.TotalMass(), totalMass)
	}
}
