package engine

import (
	"fmt"
	"sync"

	"repro/internal/sketch"
)

// Partition mode --------------------------------------------------------------
//
// Replica mode spends workers x sketch-size memory and a full merge per
// snapshot. Partition mode (Config.Partition) keeps ONE copy of the logical
// sketch and splits it by columns: shard j owns columns [j*W/N, (j+1)*W/N) of
// every row — contiguous per row thanks to the flat row-major layout — so the
// shards' slices tile the sketch exactly and a snapshot is a concatenation,
// not a merge.
//
// Routing happens in the producers: dispatch hashes the batch once per row
// through the family's batch kernels (sketch.ColumnSketch.ScatterColumns) and
// sends each shard only the (local index, delta) increments that land in its
// columns. Hashing a key names, for each row, the shard owning that row's
// bucket; the shard worker is a pure scatter-add loop over its own slice with
// no hashing and no replica. Because counter addition commutes, the
// assembled snapshot is counter-for-counter — and, whenever counter sums are
// exact in float64, bit-for-bit — identical to replica mode and to the
// single-threaded sketch, which is what the cross-mode equivalence tests pin.
//
// One subtlety is barrier atomicity: a replica-mode batch lands on a single
// shard, so every snapshot cut falls on a batch boundary for free. A
// partitioned batch fans out to several shards, so dispatch and barrier
// serialize on an RWMutex — producers hold the read side around their sends,
// a barrier holds the write side while enqueueing its tokens — keeping every
// batch's parts entirely on one side of every cut.
//
// Heavy-hitter trackers add a candidate lane: every key also travels to the
// shard owning its row-0 bucket, which scores it from its own row-0 counter
// (the same never-underestimating bound the tracker's heap uses) into a
// bounded CandidateSet. Snapshot assembly unions the shard candidate sets and
// re-scores them against the assembled counters — the same reduction replica
// merges apply. Candidate selection is heuristic in every mode; the counters
// and every counter-derived read are what stay bit-identical.

// colBatch is the partition-mode unit of work: parallel shard-local flat
// counter indices and deltas, the batch's delta mass (attributed to shard 0),
// and the tracker candidate lane.
type colBatch struct {
	idx      []uint32
	deltas   []float64
	mass     float64
	candKeys []uint64
	candIdx  []uint32
}

// colShard is one worker goroutine and its column slice: the counters of
// global columns [lo, hi) of every row, row-major.
type colShard struct {
	ch     chan op
	lo, hi int
	counts []float64
	mass   float64
	cands  *sketch.CandidateSet // nil unless the family tracks candidates
	done   chan struct{}
}

// candidateSketch is the optional extra contract of families that carry a
// candidate set beside their counters (the heavy-hitter tracker): absorb keys
// re-scored against the current counters, and name the capacity.
type candidateSketch interface {
	AbsorbCandidates(items []uint64)
	CandidateCap() int
}

// partition is the partition-mode state of an Engine (nil in replica mode).
type partition[S any] struct {
	shape  sketch.ColumnShape
	shards []*colShard

	// scatter routes a batch through the prototype's shared hash functions;
	// it reads only those and the producer-owned ColumnScatter scratch, so
	// producers route concurrently.
	scatter func(items []uint64, deltas []float64, sc *sketch.ColumnScatter)

	// dispatchMu makes a producer's multi-shard dispatch atomic with respect
	// to barriers (see the package comment above).
	dispatchMu sync.RWMutex

	free chan colBatch // recycled scatter buffers, shared by all producers

	candCap int // > 0 when the family tracks candidates
}

// startPartitioned installs the partition-mode state and starts the column
// workers. The family must implement sketch.ColumnSketch; refusing here beats
// silently serving a mode the family cannot honor.
func (e *Engine[S]) startPartitioned() {
	cfg := e.cfg
	cf, ok := any(e.proto).(sketch.ColumnSketch)
	if !ok {
		panic(fmt.Sprintf("engine: %T has no column-slice view and cannot be partitioned; use replica mode", e.proto))
	}
	shape := cf.ColumnShape()
	pt := &partition[S]{
		shape:   shape,
		scatter: cf.ScatterColumns,
		free:    make(chan colBatch, cfg.Workers*(cfg.QueueDepth+1)),
		shards:  make([]*colShard, cfg.Workers),
	}
	if cs, ok := any(e.proto).(candidateSketch); ok {
		pt.candCap = cs.CandidateCap()
	}
	for j := range pt.shards {
		lo, hi := shape.Range(j, cfg.Workers)
		sh := &colShard{
			ch:     make(chan op, cfg.QueueDepth),
			lo:     lo,
			hi:     hi,
			counts: make([]float64, shape.Rows*(hi-lo)),
			done:   make(chan struct{}),
		}
		if pt.candCap > 0 {
			sh.cands = sketch.NewCandidateSet(pt.candCap)
		}
		pt.shards[j] = sh
	}
	e.part = pt
	for _, sh := range pt.shards {
		go e.runCol(sh)
	}
}

// runCol is the partition-mode worker loop: scatter-add each batch's
// increments into the shard's own slice, fold in the mass share, score the
// candidate lane, honor barriers. No hashing, no replica, no reads outside
// the slice.
func (e *Engine[S]) runCol(sh *colShard) {
	defer close(sh.done)
	for o := range sh.ch {
		if o.ready != nil {
			o.ready <- struct{}{}
			<-o.resume
			continue
		}
		b := o.cb
		for i, id := range b.idx {
			sh.counts[id] += b.deltas[i]
		}
		sh.mass += b.mass
		if sh.cands != nil {
			for i, key := range b.candKeys {
				// Row 0's local flat index is its column offset, so the
				// candidate's score — its row-0 counter after this batch — is
				// one read from the shard's own slice.
				sh.cands.Offer(key, sh.counts[b.candIdx[i]])
			}
		}
		select {
		case e.part.free <- colBatch{idx: b.idx[:0], deltas: b.deltas[:0], candKeys: b.candKeys[:0], candIdx: b.candIdx[:0]}:
		default:
		}
	}
}

// partDispatch routes the producer's buffered batch to the column shards:
// scatter through the family's batch kernels, then send each shard its part
// under the dispatch lock so no barrier can split the batch.
func (p *Producer[S]) partDispatch() {
	pt, sc := p.e.part, p.sc
	pt.scatter(p.cur.items, p.cur.deltas, sc)
	p.cur.items, p.cur.deltas = p.cur.items[:0], p.cur.deltas[:0]
	pt.dispatchMu.RLock()
	for j, sh := range pt.shards {
		if len(sc.Idx[j]) == 0 && len(sc.CandKeys[j]) == 0 && (j != 0 || sc.Mass == 0) {
			continue
		}
		cb := colBatch{idx: sc.Idx[j], deltas: sc.Delta[j], candKeys: sc.CandKeys[j], candIdx: sc.CandIdx[j]}
		if j == 0 {
			cb.mass = sc.Mass
		}
		sh.ch <- op{cb: cb}
		// The shard now owns those buffers; install recycled (or fresh) ones.
		select {
		case nb := <-pt.free:
			sc.Idx[j], sc.Delta[j] = nb.idx[:0], nb.deltas[:0]
			sc.CandKeys[j], sc.CandIdx[j] = nb.candKeys[:0], nb.candIdx[:0]
		default:
			sc.Idx[j], sc.Delta[j] = nil, nil
			sc.CandKeys[j], sc.CandIdx[j] = nil, nil
		}
	}
	// Bump the write generation inside the dispatch lock, pairing with the
	// barrier's cutGen capture under the write side (see engine.dispatchMu):
	// the cut counts exactly the batches on its side.
	p.e.writeGen.Add(1)
	pt.dispatchMu.RUnlock()
	sc.Mass = 0
}

// partSnapshot copies every shard's slice (and candidate keys) under the
// barrier, then assembles the full replica outside it, so producers stall
// only for the memcpy. Caller holds e.mu and has flushed the engine handle.
func (e *Engine[S]) partSnapshot() (S, error) {
	var zero S
	pt := e.part
	slices := make([][]float64, len(pt.shards))
	var mass float64
	var candKeys []uint64
	err := e.barrier(func() error {
		for j, sh := range pt.shards {
			slices[j] = append([]float64(nil), sh.counts...)
			mass += sh.mass
			if sh.cands != nil {
				candKeys = sh.cands.AppendItems(candKeys)
			}
		}
		return nil
	})
	if err != nil {
		return zero, err
	}
	return e.assemble(slices, mass, candKeys)
}

// assemble builds a full replica from per-shard column slices: concatenate
// the counters, set the mass, and re-score any candidate keys against the
// assembled sketch.
func (e *Engine[S]) assemble(slices [][]float64, mass float64, candKeys []uint64) (S, error) {
	var zero S
	out := e.proto.Clone()
	cf, ok := any(out).(sketch.ColumnSketch)
	if !ok {
		return zero, fmt.Errorf("engine: %T lost its column-slice view", out)
	}
	if err := cf.ConcatColumns(slices, mass); err != nil {
		return zero, fmt.Errorf("engine: assembling partitioned snapshot: %w", err)
	}
	if len(candKeys) > 0 {
		if cs, ok := any(out).(candidateSketch); ok {
			cs.AbsorbCandidates(candKeys)
		}
	}
	return out, nil
}

// partClose drains and stops the column workers (the producers are already
// retired) and assembles the final replica. Caller has marked the engine
// closed.
func (e *Engine[S]) partClose() (S, error) {
	pt := e.part
	for _, sh := range pt.shards {
		close(sh.ch)
	}
	for _, sh := range pt.shards {
		<-sh.done
	}
	slices := make([][]float64, len(pt.shards))
	var mass float64
	var candKeys []uint64
	for j, sh := range pt.shards {
		slices[j] = sh.counts
		mass += sh.mass
		if sh.cands != nil {
			candKeys = sh.cands.AppendItems(candKeys)
		}
	}
	return e.assemble(slices, mass, candKeys)
}
