package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// probeShare is the share of a run given to the quiescent read probe on the
// workloads whose reader does not run beside the writer: 1/probeShare of the
// run's seconds, after the writes.
const probeShare = 4

// usage is the process's cumulative allocation and CPU use at one instant.
type usage struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	cpuNs               int64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs,
		cpuNs: cpuNs(),
	}
}

// sub returns what was used between an earlier reading and u.
func (u usage) sub(earlier usage) usage {
	return usage{
		mallocs: u.mallocs - earlier.mallocs, allocBytes: u.allocBytes - earlier.allocBytes,
		gcCycles: u.gcCycles - earlier.gcCycles, gcPauseNs: u.gcPauseNs - earlier.gcPauseNs,
		cpuNs: u.cpuNs - earlier.cpuNs,
	}
}

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// liveHeapMiB forces a collection and returns the heap still in use.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// meshStats sums /v1/stats over the daemons.
func (b *bench) meshStats() (daemonStats, error) {
	var sum daemonStats
	for _, c := range b.ctl {
		st, err := c.stats()
		if err != nil {
			return sum, err
		}
		sum.batches += st.batches
		sum.streamFrames += st.streamFrames
		sum.epochHits += st.epochHits
		sum.epochMisses += st.epochMisses
		sum.deltasApplied += st.deltasApplied
		sum.deltasDuplicate += st.deltasDuplicate
		sum.deltasRejected += st.deltasRejected
		sum.gossipFramesAcked += st.gossipFramesAcked
		sum.gossipBytesShipped += st.gossipBytesShipped
	}
	return sum, nil
}

// extremes keeps, per query column and key, the lowest and highest answer the
// mixed reader saw. Its answers race the writer, so they cannot be compared
// with one fixed state; but the deltas are positive, so every answer must lie
// between the reference's answer before the window and the one after it.
type extremes struct{ lo, hi [][]float64 }

func (e *extremes) observe(col int, ests []float64) {
	if e.lo[col] == nil {
		e.lo[col] = append([]float64(nil), ests...)
		e.hi[col] = append([]float64(nil), ests...)
		return
	}
	for j, v := range ests {
		e.lo[col][j] = min(e.lo[col][j], v)
		e.hi[col][j] = max(e.hi[col][j], v)
	}
}

// within reports the first answer seen outside [before, after].
func (e *extremes) within(before, after [][]float64, qcols [][]uint64) error {
	for col := range e.lo {
		for j := range e.lo[col] {
			if e.lo[col][j] < before[col][j] || e.hi[col][j] > after[col][j] {
				return fmt.Errorf("reads of key %d answered %v..%v, outside the reference answers before and after the window, %v and %v",
					qcols[col][j], e.lo[col][j], e.hi[col][j], before[col][j], after[col][j])
			}
		}
	}
	return nil
}

// windowResult is what one measured window produced.
type windowResult struct {
	writes    samples // per write op: the producer's wait for the ack
	reads     samples
	opLat     []int64 // per write op: first byte sent to ack received, ns
	late      []int64 // open loop only: how late each op was sent, ns
	attempted int
	failed    int           // reads only: a failed write ends the run
	updates   int           // updates acked by the window's write ops
	wireBytes int64         // writer payload plus gossip bytes shipped over the write phase
	converge  time.Duration // last ack to every node holding the acked mass
	// before and after are summed over the daemons, around the write phase;
	// use is what the write phase used.
	before, after daemonStats
	use           usage
	// writeScale and readScale bring a duration measured in the write phase
	// and in the read phase to the nominal box (yardstick.go): the yardstick
	// was read before, between and after the phase's sub-windows.
	writeScale, readScale float64
}

// readInto issues one read and files it in the sub-window that began at
// start: its latency, or a failure, which misses every latency percentile.
func (b *bench) readInto(w *subWindow, res *windowResult, start time.Time, rec *recorder) (col int, ests []float64, ok bool) {
	t := time.Now()
	col, ests, err := b.r.read(rec)
	done := time.Now()
	res.attempted++
	if err != nil {
		res.failed++
		return col, nil, false
	}
	w.add(done.Sub(start), done.Sub(t))
	return col, ests, true
}

// window measures one run of the workload: the write phase (with the reader
// beside it on a mixed workload), the exactness check, and on the other
// workloads the quiescent read probe. Each phase is subWindows stretches of
// load with the clients paused and the yardstick read between them; y is nil
// on a traced run, whose per-layer numbers are as the clock read them. recW
// and recR, when non-nil, record the writer's and the reader's client spans.
func (b *bench) window(seconds float64, y *yardstick, recW, recR *recorder) (*windowResult, error) {
	wl := b.wl
	res := &windowResult{}
	total := time.Duration(seconds * float64(time.Second))
	writeDur, readDur := total, total
	if !wl.mixedReader {
		readDur = total / probeShare
		writeDur = total - readDur
	}

	var err error
	if res.before, err = b.meshStats(); err != nil {
		return nil, err
	}
	payloadBefore := b.w.payloadBytes()
	firstOp := b.acked

	var (
		before [][]float64
		seen   = extremes{make([][]float64, queryCols), make([][]float64, queryCols)}
	)
	if wl.mixedReader {
		before = b.ref.answers(b.ref.at(b.ackedUpdates()))
	}
	period := time.Duration(0)
	if wl.paceHz > 0 {
		period = time.Duration(float64(time.Second) / wl.paceHz)
	}
	useBefore := readUsage()
	paces := []float64{y.measure()}

	// The write phase. A reader goroutine owns res.attempted and res.failed
	// while it runs, so the writes are counted apart.
	var writeErr error
	writeAttempts := 0
	for j := 0; j < subWindows && writeErr == nil; j++ {
		var (
			writes, reads subWindow
			stop          atomic.Bool
			readerWG      sync.WaitGroup
		)
		start := time.Now()
		end := start.Add(writeDur / subWindows)
		if wl.mixedReader {
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				for !stop.Load() {
					if col, ests, ok := b.readInto(&reads, res, start, recR); ok {
						seen.observe(col, ests)
					}
				}
			}()
		}
		for k := 0; ; k++ {
			from := time.Time{} // what the op's latency is timed from; zero = the wait's start
			if period > 0 {
				due := start.Add(time.Duration(k) * period)
				if !due.Before(end) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				res.late = append(res.late, max(0, int64(time.Since(due))))
				from = due
			} else if !time.Now().Before(end) {
				break
			}
			opStart := time.Now()
			waitStart, err := b.w.write(b.acked, recW)
			done := time.Now()
			writeAttempts++
			if err != nil {
				writeErr = err
				break
			}
			b.acked++
			if from.IsZero() {
				from = waitStart
			}
			writes.add(done.Sub(start), done.Sub(from))
			res.opLat = append(res.opLat, int64(done.Sub(opStart)))
		}
		stop.Store(true)
		readerWG.Wait()
		paces = append(paces, y.measure())
		res.writes = append(res.writes, writes)
		if wl.mixedReader {
			res.reads = append(res.reads, reads)
		}
	}
	res.use = readUsage().sub(useBefore)
	res.writeScale = toNominal(paces)
	res.readScale = res.writeScale // on a mixed workload the reads ran beside the writes
	res.attempted += writeAttempts
	if writeErr != nil {
		// A write whose outcome is unknown leaves nothing to check the daemons
		// against, so the run has no result.
		return nil, fmt.Errorf("write op %d failed: %w", b.acked, writeErr)
	}
	res.updates = (b.acked - firstOp) * wl.opSize()

	ref, converged, err := b.settle()
	if err != nil {
		return nil, err
	}
	res.converge = converged
	if res.after, err = b.meshStats(); err != nil {
		return nil, err
	}
	res.wireBytes = b.w.payloadBytes() - payloadBefore + res.after.gossipBytesShipped - res.before.gossipBytesShipped
	after := b.ref.answers(ref)
	if wl.mixedReader {
		return res, seen.within(before, after, b.in.qcols)
	}

	// The quiescent probe: nothing writes, so every answer must be exactly the
	// reference's.
	paces = []float64{y.measure()}
	for j := 0; j < subWindows; j++ {
		var reads subWindow
		start := time.Now()
		for end := start.Add(readDur / subWindows); time.Now().Before(end); {
			col, ests, ok := b.readInto(&reads, res, start, recR)
			if !ok {
				continue
			}
			if j := firstDiff(ests, after[col]); j >= 0 {
				return nil, fmt.Errorf("probe read answers %v for key %d, the reference answers %v", ests[j], b.in.qcols[col][j], after[col][j])
			}
		}
		paces = append(paces, y.measure())
		res.reads = append(res.reads, reads)
	}
	res.readScale = toNominal(paces)
	return res, nil
}
