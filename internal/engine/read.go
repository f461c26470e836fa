package engine

import (
	"fmt"

	"repro/internal/sketch"
)

// Epoch-pinned read cache -----------------------------------------------------
//
// Snapshot cuts a barrier per call: every read used to stall the workers and
// pay a full merge, even when nothing had been written since the last one.
// The read cache inverts that. The engine keeps an atomic pointer to its most
// recent snapshot stamped with the write generation it observed (readEpoch);
// a reader whose load of the pointer matches the current generation shares
// that snapshot lock-free — no barrier, no merge, no mutex — and any dispatch
// invalidates the epoch simply by bumping the generation. Only the first
// reader after a write pays the barrier; everyone else rides the pinned
// epoch. The snapshot inside an epoch is immutable by contract: it is never
// handed to callers for writing (Snapshot still returns caller-owned copies)
// and readers query it only through read-only operations.
//
// internal/server is the cache's caller: it serves the pinned snapshot as its
// read epoch while it holds no foreign mass, keeps it as the baseline its
// gossip peers acked, cuts delta frames from it and encodes bootstrap
// transfers from it, from several goroutines at once. So neither the engine
// nor any caller may write to what ReadSnapshot returns — no Merge into it,
// no Sub, no Scale; a caller that needs to add to a cut takes a Copy or asks
// Snapshot for a sketch of its own.

// readEpoch is one published read generation: an immutable snapshot and the
// write generation it observed. Shared by any number of readers.
type readEpoch[S LinearSketch[S]] struct {
	gen  uint64
	snap S
}

// Generation returns the engine's current write generation: the number of
// dispatched batches. A read epoch stamped with this value reflects every
// flushed write.
func (e *Engine[S]) Generation() uint64 { return e.writeGen.Load() }

// EpochHits returns how many reads were answered from a pinned epoch without
// taking the barrier.
func (e *Engine[S]) EpochHits() int64 { return e.epochHits.Load() }

// EpochMisses returns how many reads had to cut a fresh snapshot because the
// pinned epoch was stale (or absent).
func (e *Engine[S]) EpochMisses() int64 { return e.epochMisses.Load() }

// ReadSnapshot returns the current read epoch's snapshot and its write
// generation. When the pinned epoch is current the call is lock-free and the
// returned snapshot is shared — callers must treat it as immutable, reading
// it only through queries, encoders and as the source operand of another
// sketch's Merge, Sub or Copy (all safe concurrently on an immutable
// sketch). On a stale epoch the calling reader cuts a fresh snapshot under
// the engine mutex — exactly what Snapshot does, including the flush of the
// engine's own handle — publishes it, and every reader behind it shares the
// result.
//
// The returned generation makes reads exact in the presence of racing
// ingest: a snapshot at generation g holds precisely the first g dispatched
// batches, nothing more, nothing less.
func (e *Engine[S]) ReadSnapshot() (S, uint64, error) {
	var zero S
	if e.readClosed.Load() {
		return zero, 0, ErrClosed
	}
	if ep := e.epoch.Load(); ep != nil && ep.gen == e.writeGen.Load() {
		e.epochHits.Add(1)
		return ep.snap, ep.gen, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return zero, 0, ErrClosed
	}
	// Another reader may have refreshed the epoch while we waited for the
	// lock; their snapshot is as current as ours would be.
	if ep := e.epoch.Load(); ep != nil && ep.gen == e.writeGen.Load() {
		e.epochHits.Add(1)
		return ep.snap, ep.gen, nil
	}
	e.epochMisses.Add(1)
	snap, err := e.snapshotLocked()
	if err != nil {
		return zero, 0, err
	}
	// cutGen was captured under the dispatch write lock at the barrier cut,
	// so it counts exactly the batches the snapshot contains. Publishes are
	// serialized by e.mu and gens are monotonic, so a plain store suffices.
	ep := &readEpoch[S]{gen: e.cutGen, snap: snap}
	e.epoch.Store(ep)
	return ep.snap, ep.gen, nil
}

// EstimateBatch answers a whole column of point queries from the pinned read
// epoch, writing the estimate of keys[i] to dst[i] and returning the write
// generation the answers reflect. The batched kernels run over a pooled
// scratch, so steady-state reads neither allocate nor contend: any number of
// goroutines may call EstimateBatch concurrently. Replica types without a
// batch estimator fall back to scalar Estimate over the same epoch; types
// with neither contract return an error.
func (e *Engine[S]) EstimateBatch(keys []uint64, dst []float64) (uint64, error) {
	if len(keys) != len(dst) {
		panic(fmt.Sprintf("engine: EstimateBatch length mismatch (%d keys, %d dst)", len(keys), len(dst)))
	}
	snap, gen, err := e.ReadSnapshot()
	if err != nil {
		return 0, err
	}
	switch est := any(snap).(type) {
	case sketch.BatchEstimator:
		sc, _ := e.estScratch.Get().(*sketch.EstimateScratch)
		if sc == nil {
			sc = new(sketch.EstimateScratch)
		}
		est.EstimateBatchWith(keys, dst, sc)
		e.estScratch.Put(sc)
	case interface{ Estimate(uint64) float64 }:
		for i, key := range keys {
			dst[i] = est.Estimate(key)
		}
	default:
		return 0, fmt.Errorf("engine: %T has no estimator", snap)
	}
	return gen, nil
}
