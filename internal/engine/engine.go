package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sketch"
)

// Config controls the shape of an Engine.
type Config struct {
	// Workers is the number of shard goroutines. Zero means GOMAXPROCS.
	Workers int
	// BatchSize is the number of updates a producer handle buffers before a
	// batch is handed to a worker. Zero means 1024. Larger batches amortize
	// channel overhead; smaller ones reduce snapshot latency.
	BatchSize int
	// QueueDepth is the per-shard channel buffer measured in batches. Zero
	// means 4. It bounds how far the producers can run ahead of the workers.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	return c
}

// ErrClosed is returned by operations on an engine after Close.
var ErrClosed = errors.New("engine: closed")

// batch is a pair of parallel key/delta columns — the unit of work handed to
// a shard. Columns, not records: the worker passes them straight to the
// replica's UpdateBatch, which drives the vectorizable hash kernels, so an
// update crosses the engine without ever being boxed into a per-item struct.
type batch struct {
	items  []uint64
	deltas []float64
}

// op is a shard channel message: a batch of updates, or a snapshot barrier
// token (ready/resume non-nil).
type op struct {
	b      batch
	ready  chan<- struct{} // worker sends when all earlier batches are applied
	resume <-chan struct{} // worker blocks here until the merge has read its replica
}

// shard is one worker goroutine and its private sketch replica. The replica
// exists only once the shard holds mass: the worker clones it from the
// prototype when its first batch arrives and then sets live. Barrier callers
// and Close read replica after the worker has parked or exited (the
// ready/resume and done channels order that); CounterWords reads live alone,
// at any time, and CounterBytes and WidenedReplicas read it with bytes and
// wide, which the worker keeps in step with the replica's counter storage.
type shard[S LinearSketch[S]] struct {
	ch      chan op
	replica S
	live    atomic.Bool
	bytes   atomic.Int64 // the replica's CounterBytes; 0 if S reports none
	wide    atomic.Bool  // the replica's Widened
	done    chan struct{}
}

// counterStorage is what a sketch family reports about its counter memory:
// the bytes its arrays take, and whether they have widened from int32 to
// float64 (see sketch.CountMin).
type counterStorage interface {
	CounterBytes() int
	Widened() bool
}

// noteStorage refreshes the shard's record of its replica's counter storage.
// Only widening changes it, so the stores are rare; the worker calls it after
// every batch.
func (sh *shard[S]) noteStorage() {
	st, ok := any(sh.replica).(counterStorage)
	if !ok {
		return
	}
	if b := int64(st.CounterBytes()); b != sh.bytes.Load() {
		sh.bytes.Store(b)
		sh.wide.Store(st.Widened())
	}
}

// Engine fans a stream of updates across worker goroutines, each owning a
// private sketch replica built from identical hash seeds, and merges the
// replicas exactly on Snapshot or Close.
//
// Ingestion is multi-producer: any number of goroutines may feed the engine
// concurrently, each through its own handle from Producer (the handle owns a
// private batch buffer, so the hot path shares no locks). Snapshot and
// ReadSnapshot are safe to call while producers are ingesting; they cut a
// consistent barrier across the shard queues. The engine-level
// Update/UpdateColumns/Flush methods are a convenience for single-goroutine
// callers — they ride the engine's own producer handle and must not be used
// concurrently (with each other or with Snapshot/Close); concurrent
// ingesters take handles instead.
type Engine[S LinearSketch[S]] struct {
	cfg    Config
	shards []*shard[S]

	// proto is the prototype every replica is cloned from; only ever read.
	proto S
	// decode deserializes a replica and rejects one incompatible with proto
	// (see DecodeReplica).
	decode func([]byte) (S, error)

	free chan batch // recycled column pairs, shared by all producers

	// mu serializes the engine's structural transitions — producer
	// registration, barriers (Snapshot) and the Close handshake. The
	// ingestion hot path never touches it: producers talk straight to the
	// shard channels.
	mu        sync.Mutex
	closed    bool
	producers sync.WaitGroup
	stagger   atomic.Int64 // spreads new producers' first shard across the ring

	// dispatchMu makes a dispatch (shard send + write-generation bump) atomic
	// with respect to barriers: producers hold the read side around
	// send+bump, a barrier holds the write side while enqueueing its tokens
	// and capturing cutGen, so the generation counts exactly the batches on
	// the snapshot's side of every cut. Producers only ever share it
	// read-read on the hot path.
	dispatchMu sync.RWMutex
	// writeGen counts dispatched batches: it is the engine's write generation.
	// A published read epoch whose gen equals writeGen is current; any later
	// dispatch invalidates it by bumping.
	writeGen atomic.Uint64
	// cutGen is writeGen captured at the last barrier cut — the generation of
	// the state a snapshot taken at that barrier observes. Guarded by e.mu
	// (only barrier writes it, only barrier callers read it).
	cutGen uint64

	// Epoch-pinned read cache (see read.go): readers at the current gen share
	// one immutable snapshot lock-free and never take the barrier.
	epoch       atomic.Pointer[readEpoch[S]]
	epochHits   atomic.Int64
	epochMisses atomic.Int64
	readClosed  atomic.Bool // fences the lock-free read path after Close
	estScratch  sync.Pool   // *sketch.EstimateScratch, shared by EstimateBatch readers

	def *Producer[S] // backs the engine-level convenience ingestion methods
}

// run is the worker loop: apply batches in arrival order, honor barriers.
func (e *Engine[S]) run(sh *shard[S]) {
	defer close(sh.done)
	for o := range sh.ch {
		if o.ready != nil {
			o.ready <- struct{}{}
			<-o.resume
			continue
		}
		if !sh.live.Load() {
			sh.replica = e.proto.Clone()
			sh.noteStorage()
			sh.live.Store(true)
		}
		sh.replica.UpdateBatch(o.b.items, o.b.deltas)
		sh.noteStorage()
		// Recycle the columns if the free list has room; drop them otherwise.
		select {
		case e.free <- batch{items: o.b.items[:0], deltas: o.b.deltas[:0]}:
		default:
		}
	}
}

// Producer ------------------------------------------------------------------

// Producer is an ingestion handle for one goroutine. It owns a private batch
// buffer and a private round-robin cursor over the shard queues, so N
// producers ingest concurrently without sharing any mutable state: the only
// synchronization on the hot path is the (per-batch, amortized) shard channel
// send. Linearity makes this exact — whichever producer an update arrives
// through and whichever shard its batch lands on, the barrier merge equals
// the single-threaded sketch counter for counter.
//
// A handle is not itself goroutine-safe: each concurrent ingester takes its
// own via Engine.Producer. Every handle must be Closed (flushing its buffer)
// before Engine.Close can complete.
//
// The handle buffers key/delta columns, not records: Update appends to both
// columns, UpdateColumns bulk-copies caller columns, and a full buffer is
// handed to a shard whole, where it flows unchanged into the replica's
// batched update path.
type Producer[S LinearSketch[S]] struct {
	e      *Engine[S]
	cur    batch
	next   int
	closed bool
}

// Producer registers a new ingestion handle. It panics after Engine.Close —
// handing out handles whose flushes have nowhere to land is a programming
// error, like Update after Close.
func (e *Engine[S]) Producer() *Producer[S] {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		panic("engine: Producer after Close")
	}
	e.producers.Add(1)
	return &Producer[S]{
		e: e,
		cur: batch{
			items:  make([]uint64, 0, e.cfg.BatchSize),
			deltas: make([]float64, 0, e.cfg.BatchSize),
		},
		next: int(e.stagger.Add(1)-1) % len(e.shards),
	}
}

// Update appends one record to the handle's columns, dispatching the batch
// to a shard when it reaches BatchSize.
func (p *Producer[S]) Update(item uint64, delta float64) {
	if p.closed {
		panic("engine: producer Update after Close")
	}
	p.cur.items = append(p.cur.items, item)
	p.cur.deltas = append(p.cur.deltas, delta)
	if len(p.cur.items) >= p.e.cfg.BatchSize {
		p.dispatch()
	}
}

// UpdateColumns appends parallel key/delta columns — the engine's native
// batch shape, and what the server's wire decoder produces. The columns are
// bulk-copied into the handle's buffer (the caller keeps ownership and may
// reuse them immediately), dispatching to a shard each time the buffer
// fills, so a large caller batch moves through memcpy-speed copies instead
// of a per-item loop.
func (p *Producer[S]) UpdateColumns(items []uint64, deltas []float64) {
	if p.closed {
		panic("engine: producer UpdateColumns after Close")
	}
	if len(items) != len(deltas) {
		panic(fmt.Sprintf("engine: UpdateColumns length mismatch (%d items, %d deltas)", len(items), len(deltas)))
	}
	for len(items) > 0 {
		n := p.e.cfg.BatchSize - len(p.cur.items)
		if n > len(items) {
			n = len(items)
		}
		p.cur.items = append(p.cur.items, items[:n]...)
		p.cur.deltas = append(p.cur.deltas, deltas[:n]...)
		items, deltas = items[n:], deltas[n:]
		if len(p.cur.items) >= p.e.cfg.BatchSize {
			p.dispatch()
		}
	}
}

// dispatch hands the current batch to the handle's next shard round-robin
// and starts a fresh column pair from the shared free list.
func (p *Producer[S]) dispatch() {
	if len(p.cur.items) == 0 {
		return
	}
	e := p.e
	// Send and generation bump are one atomic unit with respect to barriers
	// (read side here, write side in barrier), so a cut can never count a
	// batch it excludes or exclude one it counts. Workers drain the channels
	// without touching dispatchMu, so holding the read side across a blocking
	// send cannot deadlock a waiting barrier.
	e.dispatchMu.RLock()
	e.shards[p.next].ch <- op{b: p.cur}
	e.writeGen.Add(1)
	e.dispatchMu.RUnlock()
	p.next = (p.next + 1) % len(e.shards)
	select {
	case b := <-e.free:
		p.cur = b
	default:
		p.cur = batch{
			items:  make([]uint64, 0, e.cfg.BatchSize),
			deltas: make([]float64, 0, e.cfg.BatchSize),
		}
	}
}

// Flush dispatches any partially filled batch so it becomes visible to the
// next Snapshot. On a closed handle it is a no-op.
func (p *Producer[S]) Flush() {
	if p.closed {
		return
	}
	p.dispatch()
}

// Close flushes the handle's buffer and retires it. Closing twice is a
// no-op. Engine.Close blocks until every handle has been Closed, which is
// what guarantees the final merge sees every produced update.
func (p *Producer[S]) Close() {
	if p.closed {
		return
	}
	p.dispatch()
	p.closed = true
	p.e.producers.Done()
}

// Engine-level convenience ingestion ----------------------------------------

// Update appends one record through the engine's own producer handle. It is
// a convenience for single-goroutine callers; concurrent ingesters use
// Producer handles.
func (e *Engine[S]) Update(item uint64, delta float64) {
	if e.def.closed {
		panic("engine: Update after Close")
	}
	e.def.Update(item, delta)
}

// UpdateColumns appends parallel key/delta columns through the engine's own
// producer handle (see Update for the concurrency contract).
func (e *Engine[S]) UpdateColumns(items []uint64, deltas []float64) {
	e.def.UpdateColumns(items, deltas)
}

// Flush dispatches the engine handle's partially filled batch so it becomes
// visible to the next Snapshot. Producer handles flush themselves.
func (e *Engine[S]) Flush() {
	e.def.Flush()
}

// Workers returns the number of shards.
func (e *Engine[S]) Workers() int { return len(e.shards) }

// CounterWords returns the number of resident sketch counters across all
// shards: the sketch size times the workers that have received a batch, up
// to workers x (TestModeAndCounterWords pins it). Engines over
// types without a known size report 0.
func (e *Engine[S]) CounterWords() int {
	live := 0
	for _, sh := range e.shards {
		if sh.live.Load() {
			live++
		}
	}
	return e.replicaWords() * live
}

// replicaWords returns the counters of one replica, or 0 for a type without
// a known size.
func (e *Engine[S]) replicaWords() int {
	switch s := any(e.proto).(type) {
	case interface{ Size() int }:
		return s.Size()
	case interface{ SizeCounters() int }:
		return s.SizeCounters()
	case interface{ SpaceCounters() int }:
		return s.SpaceCounters()
	}
	return 0
}

// CounterBytes returns the bytes the resident counters of CounterWords take:
// each replica's as it reports them — 4 per counter while a Count-Min
// family counts in int32, 8 once widened — and 8 per counter for a family
// that reports nothing.
func (e *Engine[S]) CounterBytes() int {
	n := 0
	for _, sh := range e.shards {
		if !sh.live.Load() {
			continue
		}
		if b := sh.bytes.Load(); b > 0 {
			n += int(b)
		} else {
			n += 8 * e.replicaWords()
		}
	}
	return n
}

// WidenedReplicas returns how many replicas have widened their counters from
// int32 to float64 (see sketch.CountMin).
func (e *Engine[S]) WidenedReplicas() int {
	n := 0
	for _, sh := range e.shards {
		if sh.live.Load() && sh.wide.Load() {
			n++
		}
	}
	return n
}

// barrier enqueues a sync token on every shard, waits until all workers have
// drained their queues, runs fn, then releases the workers. Callers hold
// e.mu, which serializes concurrent barriers; producers keep enqueueing
// batches while a barrier is in flight (they land after the token, so the
// cut stays consistent). The tokens are enqueued under the dispatch write
// lock, so the cut's generation counts exactly the batches ahead of them.
func (e *Engine[S]) barrier(fn func() error) error {
	ready := make(chan struct{}, len(e.shards))
	resume := make(chan struct{})
	e.dispatchMu.Lock()
	for _, sh := range e.shards {
		sh.ch <- op{ready: ready, resume: resume}
	}
	e.cutGen = e.writeGen.Load()
	e.dispatchMu.Unlock()
	for range e.shards {
		<-ready
	}
	err := fn()
	close(resume)
	return err
}

// Snapshot returns a fresh replica holding the exact merge of every shard —
// the sketch a single-threaded run over every update flushed so far would
// have produced. It is safe to call while producers are ingesting: updates
// a producer has flushed before the call are included, updates still
// buffered in handles are not. Ingestion resumes afterwards. A pinned read
// epoch (ReadSnapshot) that the barrier finds stale is dropped: it can never
// be served again, and nothing else in the engine needs it.
func (e *Engine[S]) Snapshot() (S, error) {
	var zero S
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return zero, ErrClosed
	}
	snap, err := e.snapshotLocked()
	if ep := e.epoch.Load(); err == nil && ep != nil && ep.gen < e.cutGen {
		e.epoch.Store(nil)
	}
	return snap, err
}

// snapshotLocked cuts a barrier and merges the shards into a fresh replica.
// Caller holds e.mu and has checked closed. After it returns, e.cutGen is the
// snapshot's write generation.
func (e *Engine[S]) snapshotLocked() (S, error) {
	var zero S
	e.def.Flush()
	out := e.proto.Clone()
	if err := e.barrier(func() error { return e.mergeLive(out) }); err != nil {
		return zero, err
	}
	return out, nil
}

// mergeLive adds every shard that holds mass into out. The workers must be
// parked at a barrier or have exited.
func (e *Engine[S]) mergeLive(out S) error {
	for i, sh := range e.shards {
		if !sh.live.Load() {
			continue
		}
		if err := out.Merge(sh.replica); err != nil {
			return fmt.Errorf("engine: merging shard %d: %w", i, err)
		}
	}
	return nil
}

// DecodeReplica deserializes a replica with the decoder the engine was built
// with — the gatekeeper that rejects malformed bytes and sketches whose seed,
// shape or kind differ from the engine's own — without folding it in. The
// engine ingests local updates only: a transport that receives a sketch from
// outside decodes it here and keeps it beside the engine, adding it to a
// Snapshot when the sum is needed.
func (e *Engine[S]) DecodeReplica(data []byte) (S, error) {
	return e.decode(data)
}

// Close flushes the engine's own handle, waits for every Producer handle to
// be Closed, stops the workers and returns the final exact merge. The engine
// cannot be used afterwards. Close blocks until all handles are Closed —
// their final flushes must land before the shard queues are torn down, which
// is what makes the returned sketch equal the single-threaded run over the
// producers' combined stream.
func (e *Engine[S]) Close() (S, error) {
	var zero S
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return zero, ErrClosed
	}
	e.closed = true
	e.readClosed.Store(true)
	e.mu.Unlock()

	e.def.Close()
	e.producers.Wait()
	for _, sh := range e.shards {
		close(sh.ch)
	}
	for _, sh := range e.shards {
		<-sh.done
	}
	out := e.proto.Clone()
	if err := e.mergeLive(out); err != nil {
		return zero, err
	}
	return out, nil
}

// Sketch-family constructors -------------------------------------------------

// LinearSketch is the contract a sketch type must satisfy to ride the
// engine: batch-updatable (parallel key/delta columns — the shard workers
// hand whole batches to UpdateBatch, which is where the vectorizable hash
// kernels live), clonable (empty replica, same hash functions), mergeable
// (exact counter addition) and serializable (the versioned binary encoding).
// Every linear family in internal/sketch — CountMin, CountSketch, the
// heavy-hitter tracker, the dyadic hierarchy — satisfies it; NewLinear turns
// any of them, or a caller's own type, into an engine.
type LinearSketch[S any] interface {
	Update(item uint64, delta float64)
	UpdateBatch(items []uint64, deltas []float64)
	Clone() S
	Merge(src S) error
	MarshalBinary() ([]byte, error)
}

// NewLinear builds an engine whose shards each clone proto when their first
// batch arrives (sharing its hash functions; proto itself is never written to,
// so a counter-less sketch.Prototype serves). decode reverses the
// replica's MarshalBinary: it must deserialize a replica and reject sketches
// incompatible with proto — DecodeReplica trusts it as the gatekeeper.
func NewLinear[S LinearSketch[S]](cfg Config, proto S, decode func([]byte) (S, error)) *Engine[S] {
	cfg = cfg.withDefaults()
	e := &Engine[S]{cfg: cfg, proto: proto, decode: decode}
	e.shards = make([]*shard[S], cfg.Workers)
	e.free = make(chan batch, cfg.Workers*cfg.QueueDepth+1)
	for i := range e.shards {
		sh := &shard[S]{
			ch:   make(chan op, cfg.QueueDepth),
			done: make(chan struct{}),
		}
		e.shards[i] = sh
		go e.run(sh)
	}
	e.def = e.Producer()
	return e
}

// NewCountMin builds an engine over Count-Min replicas. proto must not use
// conservative update: conservative sketches are not linear, so sharding
// them cannot be exact and their Merge always fails — better to refuse here
// than after the whole stream has been ingested.
func NewCountMin(cfg Config, proto *sketch.CountMin) *Engine[*sketch.CountMin] {
	if proto.Conservative() {
		panic("engine: conservative-update CountMin is not linear and cannot be sharded")
	}
	return NewLinear(cfg, proto, func(data []byte) (*sketch.CountMin, error) {
		var cm sketch.CountMin
		if err := cm.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		if err := proto.CompatibleWith(&cm); err != nil {
			return nil, err
		}
		return &cm, nil
	})
}

// NewCountSketch builds an engine over Count-Sketch replicas (sharing
// proto's hash and sign functions).
func NewCountSketch(cfg Config, proto *sketch.CountSketch) *Engine[*sketch.CountSketch] {
	return NewLinear(cfg, proto, func(data []byte) (*sketch.CountSketch, error) {
		var cs sketch.CountSketch
		if err := cs.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		if err := proto.CompatibleWith(&cs); err != nil {
			return nil, err
		}
		return &cs, nil
	})
}

// NewDyadic builds an engine over dyadic-hierarchy replicas: each level is a
// Count-Min, so the clone/merge law applies level-wise and the merged
// hierarchy answers range sums, quantiles and heavy-hitter descents exactly
// as a single-threaded run would.
func NewDyadic(cfg Config, proto *sketch.Dyadic) *Engine[*sketch.Dyadic] {
	return NewLinear(cfg, proto, func(data []byte) (*sketch.Dyadic, error) {
		var d sketch.Dyadic
		if err := d.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		if err := proto.CompatibleWith(&d); err != nil {
			return nil, err
		}
		return &d, nil
	})
}

// NewTracker builds an engine over heavy-hitter tracker replicas. The
// Count-Min counters merge exactly; the candidate sets merge as a union
// re-scored against the merged counters.
func NewTracker(cfg Config, proto *sketch.HeavyHitterTracker) *Engine[*sketch.HeavyHitterTracker] {
	return NewLinear(cfg, proto, func(data []byte) (*sketch.HeavyHitterTracker, error) {
		// A peer may ship either a full tracker snapshot or a bare
		// Count-Min (counters without candidate metadata); both merge
		// exactly at the counter level.
		kind, err := sketch.PeekKind(data)
		if err != nil {
			return nil, err
		}
		switch kind {
		case sketch.KindTracker:
			var t sketch.HeavyHitterTracker
			if err := t.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			if err := proto.CompatibleWith(&t); err != nil {
				return nil, err
			}
			return &t, nil
		case sketch.KindCountMin:
			var cm sketch.CountMin
			if err := cm.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			t := proto.Clone()
			if err := t.AbsorbCountMin(&cm); err != nil {
				return nil, err
			}
			return t, nil
		default:
			return nil, fmt.Errorf("engine: cannot merge a %v encoding into a heavy-hitter tracker", kind)
		}
	})
}
