package engine

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// Engine-versus-reference equivalence ----------------------------------------
//
// The engine's whole contract is "same bits, more cores": for the same stream
// and seed, every counter-derived read of a sharded engine must match the
// single-threaded sketch exactly. These tests pin that with randomized
// configurations — family, shape, worker count, batch size, update schedule
// (including negative deltas) and mid-stream Snapshot cuts, each with the
// delta against the previous cut.
// Deltas are integers, or a half, so float64 counter sums are exact and
// "equal" means bit-for-bit, not within-epsilon. The integer streams keep the
// Count-Min families in int32 throughout; one half mid-stream widens the
// replica it lands in while the others stay int32.

// schedule is one randomized trial: a stream plus the positions (in updates
// applied) at which each run must cut a Snapshot and its delta.
type schedule struct {
	items  []uint64
	deltas []float64
	cuts   []int // strictly increasing, each < len(items)
}

func randomSchedule(r *xrand.Rand, universe uint64, n, cuts int, fraction bool) schedule {
	s := schedule{
		items:  make([]uint64, n),
		deltas: make([]float64, n),
	}
	for i := range s.items {
		s.items[i] = r.Uint64n(universe)
		// Integers in [-4, 4]: negative often enough to exercise the
		// turnstile path.
		s.deltas[i] = float64(int(r.Uint64n(9)) - 4)
	}
	if fraction {
		s.deltas[n/2] = 0.5
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

// cutRun is everything one run produced from a schedule: the encoded
// snapshot and delta at every cut, and the final Close replica.
type cutRun[S any] struct {
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
// frame. The stream is fed in segments ending at the cuts so every run
// snapshots after the same number of applied updates; within a segment the
// engine batches by its own BatchSize.
func runEngine[S LinearSketch[S]](t *testing.T, eng *Engine[S], proto S, s schedule, delta cutDelta[S]) cutRun[S] {
	t.Helper()
	var run cutRun[S]
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
func runReference[S LinearSketch[S]](t *testing.T, proto S, s schedule, cp func(S) S, delta cutDelta[S]) cutRun[S] {
	t.Helper()
	var run cutRun[S]
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

// checkRuns compares the engine's artifacts with the reference's. Snapshot and delta bytes
// must agree byte-for-byte at every cut (the encodings serialize counters,
// mass and seeds — byte equality IS bit-identity); the finals are compared by
// the caller's family-specific check (tracker bytes include the heuristic
// candidate set, so its runner compares counter-derived reads instead).
func checkRuns[S any](t *testing.T, label string, ref, rep cutRun[S], finalEqual func(a, b S) error) {
	t.Helper()
	for i := range ref.snaps {
		if !bytes.Equal(ref.snaps[i], rep.snaps[i]) {
			t.Fatalf("%s: engine snapshot %d differs from single-threaded reference", label, i)
		}
		if !bytes.Equal(ref.deltas[i], rep.deltas[i]) {
			t.Fatalf("%s: engine delta %d differs from single-threaded reference", label, i)
		}
	}
	if err := finalEqual(ref.final, rep.final); err != nil {
		t.Fatalf("%s: engine final: %v", label, err)
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
// each run through the engine and a single-threaded reference, asserting all
// artifacts identical — once over integer streams,
// once with a fractional delta mid-stream. CI runs it twice under -race.
func TestCrossModeEquivalence(t *testing.T) {
	for _, fraction := range []bool{false, true} {
		t.Run(map[bool]string{false: "integer", true: "fraction-mid-stream"}[fraction], func(t *testing.T) {
			crossModeTrials(t, fraction)
		})
	}
}

// crossModeTrials runs TestCrossModeEquivalence's trials over one kind of
// stream, checking that the reference ends widened exactly when a fraction
// was fed.
func crossModeTrials(t *testing.T, fraction bool) {
	r := xrand.New(0xE9)
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		width := 8 + int(r.Uint64n(150))
		depth := 1 + int(r.Uint64n(5))
		workers := 1 + int(r.Uint64n(8))
		batch := 1 + int(r.Uint64n(300))
		n := 2_000 + int(r.Uint64n(8_000))
		universe := uint64(1) << (8 + r.Uint64n(12))
		sched := randomSchedule(r, universe, n, 3, fraction)
		family := int(r.Uint64n(4))
		seed := r.Uint64()

		cfg := Config{Workers: workers, BatchSize: batch}
		label := fmt.Sprintf("trial=%d family=%d w=%d d=%d workers=%d batch=%d n=%d", trial, family, width, depth, workers, batch, n)

		switch family {
		case 0:
			proto := sketch.NewCountMin(xrand.New(seed), width, depth)
			delta := func(snap, base *sketch.CountMin) ([]byte, error) { return snap.AppendDeltaSince(nil, base) }
			ref := runReference(t, proto, sched, func(s *sketch.CountMin) *sketch.CountMin { return s.Copy() }, delta)
			rep := runEngine(t, NewCountMin(cfg, proto), proto, sched, delta)
			checkRuns(t, label, ref, rep, bytesEqualFinal)
			requireWidened(t, label, ref.final, fraction)
		case 1:
			proto := sketch.NewCountSketch(xrand.New(seed), width, depth)
			ref := runReference(t, proto, sched, func(s *sketch.CountSketch) *sketch.CountSketch { return s.Copy() }, subDelta)
			rep := runEngine(t, NewCountSketch(cfg, proto), proto, sched, subDelta)
			checkRuns(t, label, ref, rep, bytesEqualFinal)
		case 2:
			logU := 6 + int(r.Uint64n(6))
			sched := randomSchedule(r, uint64(1)<<logU, n, 3, fraction)
			proto := sketch.NewDyadic(xrand.New(seed), logU, width, depth)
			ref := runReference(t, proto, sched, func(s *sketch.Dyadic) *sketch.Dyadic { return s.Copy() }, subDelta)
			rep := runEngine(t, NewDyadic(cfg, proto), proto, sched, subDelta)
			checkRuns(t, label, ref, rep, bytesEqualFinal)
			requireWidened(t, label, ref.final, fraction)
		case 3:
			k := 4 + int(r.Uint64n(12))
			proto := sketch.NewHeavyHitterTracker(xrand.New(seed), width, depth, k)
			ref := runTrackerReference(t, proto, sched)
			rep := runTrackerEngine(t, NewTracker(cfg, proto), proto, sched)
			checkTrackerRuns(t, label, universe, ref, rep)
			requireWidened(t, label, ref.final, fraction)
		}
	}
}

// requireWidened asserts a Count-Min family's counters widened to float64
// exactly when want says so.
func requireWidened(t *testing.T, label string, s interface{ Widened() bool }, want bool) {
	t.Helper()
	if s.Widened() != want {
		t.Fatalf("%s: reference widened = %v, want %v", label, s.Widened(), want)
	}
}

// Tracker runs compare counter-derived reads, not bytes: the tracker
// encoding includes its candidate set, which is heuristic under sharding
// (merges union and re-score). What must be bit-identical is the
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
	if !slices.Equal(a.Backing().CounterData(), b.Backing().CounterData()) {
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

func checkTrackerRuns(t *testing.T, label string, universe uint64, ref, rep trackerRun) {
	t.Helper()
	for i := range ref.snaps {
		if err := trackersCounterEqual(ref.snaps[i], rep.snaps[i], universe); err != nil {
			t.Fatalf("%s: engine snapshot %d: %v", label, i, err)
		}
		if err := trackersCounterEqual(ref.deltas[i], rep.deltas[i], universe); err != nil {
			t.Fatalf("%s: engine delta %d: %v", label, i, err)
		}
	}
	if err := trackersCounterEqual(ref.final, rep.final, universe); err != nil {
		t.Fatalf("%s: engine final: %v", label, err)
	}
}
