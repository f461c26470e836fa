package main

import (
	"math"
	"sort"
	"time"
)

// subWindows is how many equal stretches of load a measured phase is cut
// into, with the clients paused and the yardstick read between them. A
// throughput is reported as the median of the sub-window rates and a latency
// percentile as the median of the sub-window percentiles: a stall, a GC cycle
// or a burst from a neighbour lands in one or two sub-windows and leaves the
// median where it was, while a change that slows the program slows every
// sub-window and moves it.
const subWindows = 10

// subWindow is one uninterrupted stretch of a measured phase and the
// completions of one kind of operation in it.
type subWindow struct {
	lat []int64 // each completed op's latency, ns
	ns  int64   // from the sub-window's start to its last completion
}

func (w *subWindow) add(sinceStart, lat time.Duration) {
	w.lat = append(w.lat, int64(lat))
	w.ns = int64(sinceStart)
}

// samples are the sub-windows of one phase, in order.
type samples []subWindow

// rate returns the median sub-window completion rate in units per second,
// where every op stands for unitsPerOp units. A sub-window's time runs to its
// last completion, not to its nominal end, so an op that straddles the end is
// counted with all of its time.
func (s samples) rate(unitsPerOp float64) float64 {
	var rates []float64
	for _, w := range s {
		if len(w.lat) > 0 && w.ns > 0 {
			rates = append(rates, float64(len(w.lat))*unitsPerOp/(float64(w.ns)/1e9))
		}
	}
	return median(rates)
}

// latencyMs returns the median over sub-windows of each sub-window's p-th
// latency percentile (nearest rank), in milliseconds.
func (s samples) latencyMs(p float64) float64 {
	var ps []float64
	for _, w := range s {
		if len(w.lat) > 0 {
			ps = append(ps, percentileOf(w.lat, p)/1e6)
		}
	}
	return median(ps)
}

// all returns every latency of the phase.
func (s samples) all() []int64 {
	var out []int64
	for _, w := range s {
		out = append(out, w.lat...)
	}
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples at or
// below it. It returns NaN for an empty slice.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return float64(sorted[rank-1])
}

// percentileOf is percentile over an unsorted slice, which it leaves alone.
func percentileOf(vs []int64, p float64) float64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return percentile(s, p)
}

// median returns the median of vs (mean of the middle two for even counts),
// NaN when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of vs the way
// Python's statistics.quantiles(vs, n=4) does (the "exclusive" method), which
// is what the driver applies to ten runs. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
