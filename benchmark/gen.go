package main

import (
	"math"
	"sort"
	"sync"
)

// The benchmark's inputs are frozen here: its own splitmix64 and its own
// Zipf sampler, so a refactor of internal/xrand or internal/stream cannot
// change a workload. The daemon under test receives only the generated
// columns.

const (
	universeBits = 20
	universe     = 1 << universeBits // distinct keys
	columnLen    = 1 << 20           // updates in the cycled column
	zipfS        = 1.1

	queryCols = 64   // distinct query columns the readers rotate through
	queryKeys = 1024 // keys per read
	denseKeys = 4096 // keys of the fixed exactness-check column
)

// splitmix64 is Steele, Lea and Flood's generator: one 64-bit state word,
// every seed valid.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform float64 in [0, 1).
func (s *splitmix64) unit() float64 { return float64(s.next()>>11) / (1 << 53) }

// zipfTable is the key distribution every seed samples from, built once.
var zipfTable = sync.OnceValue(func() []float64 { return zipfCDF(universe, zipfS) })

// zipfCDF returns the cumulative distribution of Zipf(s) over ranks 0..n-1:
// P(rank = i) is proportional to (i+1)^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// input is everything one run feeds the daemons, a pure function of the seed.
type input struct {
	items  []uint64  // columnLen Zipf(1.1) keys over the universe
	deltas []float64 // columnLen integer deltas in 1..4 (positive, so counters only grow)
	// qcols are the read columns: half keys drawn from items (seen, mostly
	// heavy), half uniform over the universe (mostly unseen).
	qcols [][]uint64
	dense []uint64 // the fixed exactness-check column, same mix
}

func generate(seed uint64) *input { return generateN(seed, columnLen) }

// generateN is generate with a column of n updates.
func generateN(seed uint64, n int) *input {
	rng := splitmix64(seed)
	// Ranks map to keys through a seed-dependent bijection of the universe,
	// so the heavy keys differ from seed to seed.
	mult := rng.next() | 1
	off := rng.next()
	cdf := zipfTable()

	in := &input{
		items:  make([]uint64, n),
		deltas: make([]float64, n),
		qcols:  make([][]uint64, queryCols),
		dense:  make([]uint64, denseKeys),
	}
	for i := range in.items {
		rank := sort.SearchFloat64s(cdf, rng.unit())
		if rank >= universe {
			rank = universe - 1
		}
		in.items[i] = (uint64(rank)*mult + off) & (universe - 1)
		in.deltas[i] = float64(1 + rng.next()&3)
	}
	mixed := func(dst []uint64) {
		for j := range dst {
			if j%2 == 0 {
				dst[j] = in.items[rng.next()%uint64(n)]
			} else {
				dst[j] = rng.next() & (universe - 1)
			}
		}
	}
	for c := range in.qcols {
		in.qcols[c] = make([]uint64, queryKeys)
		mixed(in.qcols[c])
	}
	mixed(in.dense)
	return in
}
