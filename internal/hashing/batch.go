package hashing

// Batch kernels. A sketch update is a sparse matrix-vector product whose
// matrix rows are defined by hash functions, so the package hashes columns of
// keys, not keys, at two granularities:
//
//   - One row. Every family implements the batched contract
//
//     HashBatch(keys, dst)  writes Hash(keys[i]) to dst[i]
//     SignBatch(keys, dst)  writes Sign(keys[i]) to dst[i]
//
//     a tight concrete loop instead of one interface-dispatched Hash call per
//     item, which lets the compiler devirtualize the kernel, hoist the
//     per-family constants out of the loop and elide bounds checks.
//
//   - All rows of a sketch. Rows (below) is built once from a sketch's row
//     hashers and its width, and Index maps a chunk of keys to the flat
//     counter index r*width + bucket_r(key) of every row in one call. For
//     the rows Count-Min, Count-Sketch and the heavy-hitter tracker build by
//     default — pairwise polynomials over GF(2^61-1) whose range is a
//     power-of-two width — that call is one fused loop: the key is reduced
//     mod p once, not once per row; the rows run as independent multiply
//     chains in one loop body, four at a time, so the multiplier stays busy
//     while each chain's reduction retires; and a*x + b is reduced once, not
//     twice (affine61: the folded sum q + r + b is below 2^63, so one fold
//     and one conditional subtraction reach the canonical residue, which is
//     the number the two-reduction form computes). Any other family, degree
//     or range takes the per-row HashBatch kernels inside the same call, so
//     callers have one entry point and no mode to pick. This is what the
//     sketches' UpdateBatch and EstimateBatch are built on.
//
// All batched results are defined to be bit-identical to the scalar ones; the
// tests in batch_test.go check every family against scalar Hash, and the
// one-reduction step against the two-reduction form it replaced.
//
// The kernels are pure functions of (hasher, keys): they carry no internal
// scratch, so hashers and row sets shared between cloned sketch replicas (the
// engine's sharding pattern) can be used from many goroutines at once.

// BatchHasher is a Hasher that can also map a whole column of keys per call.
// HashBatch must write exactly Hash(keys[i]) to dst[i] for every i; dst must
// be at least as long as keys.
type BatchHasher interface {
	Hasher
	// HashBatch writes the bucket of keys[i] to dst[i].
	HashBatch(keys []uint64, dst []uint64)
}

// BatchSignHasher is a SignHasher that can also sign a whole column of keys
// per call. SignBatch must write exactly Sign(keys[i]) to dst[i]; dst must be
// at least as long as keys.
type BatchSignHasher interface {
	SignHasher
	// SignBatch writes the ±1 sign of keys[i] to dst[i].
	SignBatch(keys []uint64, dst []float64)
}

// HashBatch maps every key through h into dst, using the devirtualized batch
// kernel when h provides one and a scalar fallback loop otherwise. Callers
// (the sketches) can therefore hold plain Hasher values and still get the
// fast path for every family in this package.
func HashBatch(h Hasher, keys []uint64, dst []uint64) {
	if b, ok := h.(BatchHasher); ok {
		b.HashBatch(keys, dst)
		return
	}
	for i, k := range keys {
		dst[i] = h.Hash(k)
	}
}

// SignBatch signs every key through s into dst, using the batch kernel when
// available (see HashBatch).
func SignBatch(s SignHasher, keys []uint64, dst []float64) {
	if b, ok := s.(BatchSignHasher); ok {
		b.SignBatch(keys, dst)
		return
	}
	for i, k := range keys {
		dst[i] = s.Sign(k)
	}
}

// MultiplyShift -------------------------------------------------------------

// HashBatch writes (a*keys[i] + b) >> (64-bits) to dst[i]. The constants are
// hoisted once and the loop body is two integer ops and a shift — the fastest
// kernel in the package, and the one a production Count-Min row would use.
func (h *MultiplyShift) HashBatch(keys []uint64, dst []uint64) {
	a, b, shift := h.a, h.b, 64-h.bits
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = (a*k + b) >> shift
	}
}

// PolyHash ------------------------------------------------------------------

// HashBatch evaluates the polynomial at every key and range-reduces, matching
// Hash bit for bit. The pairwise (degree-2) case — what Count-Min and
// Count-Sketch rows use by default — gets a specialized two-coefficient loop.
func (p *PolyHash) HashBatch(keys []uint64, dst []uint64) {
	p.rawBatch(keys, dst)
	reduceBatch(dst[:len(keys)], p.m)
}

// reduceBatch maps every dst[i] into [0, m). A power-of-two range — what
// every sketch sized in powers of two gives its rows — reduces with a mask,
// which is bit-identical to % and saves a 64-bit division per key.
func reduceBatch(dst []uint64, m uint64) {
	if m&(m-1) == 0 {
		mask := m - 1
		for i := range dst {
			dst[i] &= mask
		}
		return
	}
	for i := range dst {
		dst[i] %= m
	}
}

// rawBatch is the batched twin of raw: dst[i] = raw(keys[i]).
func (p *PolyHash) rawBatch(keys []uint64, dst []uint64) {
	dst = dst[:len(keys)]
	switch len(p.coeffs) {
	case 1:
		c0 := p.coeffs[0]
		for i := range keys {
			dst[i] = c0
		}
	case 2:
		a0, a1 := p.coeffs[0], p.coeffs[1]
		for i, k := range keys {
			dst[i] = affine61(a1, mod61(k), a0)
		}
	default:
		coeffs := p.coeffs
		for i, k := range keys {
			x := mod61(k)
			acc := uint64(0)
			for j := len(coeffs) - 1; j >= 0; j-- {
				acc = affine61(acc, x, coeffs[j])
			}
			dst[i] = acc
		}
	}
}

// PolySign ------------------------------------------------------------------

// SignBatch writes the ±1 sign of every key, matching Sign bit for bit. The
// sign is the low bit of the polynomial evaluation; 1-2*bit maps {0,1} to
// {+1,-1} exactly in float64.
func (s *PolySign) SignBatch(keys []uint64, dst []float64) {
	p := s.p
	dst = dst[:len(keys)]
	if len(p.coeffs) == 2 {
		a0, a1 := p.coeffs[0], p.coeffs[1]
		for i, k := range keys {
			dst[i] = 1 - 2*float64(affine61(a1, mod61(k), a0)&1)
		}
		return
	}
	for i, k := range keys {
		dst[i] = 1 - 2*float64(p.raw(k)&1)
	}
}

// Tabulation ----------------------------------------------------------------

// HashBatch XORs the eight per-character table lookups for every key, with
// the table pointers hoisted out of the loop, matching Hash bit for bit.
func (t *Tabulation) HashBatch(keys []uint64, dst []uint64) {
	t0, t1, t2, t3 := &t.tables[0], &t.tables[1], &t.tables[2], &t.tables[3]
	t4, t5, t6, t7 := &t.tables[4], &t.tables[5], &t.tables[6], &t.tables[7]
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = t0[byte(k)] ^ t1[byte(k>>8)] ^ t2[byte(k>>16)] ^ t3[byte(k>>24)] ^
			t4[byte(k>>32)] ^ t5[byte(k>>40)] ^ t6[byte(k>>48)] ^ t7[byte(k>>56)]
	}
	reduceBatch(dst, t.m)
}

// TabulationSign ------------------------------------------------------------

// SignBatch writes the ±1 sign of every key, matching Sign bit for bit. Like
// reduceBatch it masks instead of dividing when the range is a power of two,
// which NewTabulationSign's 2^62 always is.
func (s *TabulationSign) SignBatch(keys []uint64, dst []float64) {
	t := s.t
	t0, t1, t2, t3 := &t.tables[0], &t.tables[1], &t.tables[2], &t.tables[3]
	t4, t5, t6, t7 := &t.tables[4], &t.tables[5], &t.tables[6], &t.tables[7]
	m := t.m
	pow2 := m&(m-1) == 0
	dst = dst[:len(keys)]
	for i, k := range keys {
		h := t0[byte(k)] ^ t1[byte(k>>8)] ^ t2[byte(k>>16)] ^ t3[byte(k>>24)] ^
			t4[byte(k>>32)] ^ t5[byte(k>>40)] ^ t6[byte(k>>48)] ^ t7[byte(k>>56)]
		if pow2 {
			h &= m - 1
		} else {
			h %= m
		}
		dst[i] = 1 - 2*float64(h&1)
	}
}

// Rows ------------------------------------------------------------------------

// Rows is the row-set kernel: the bucket hashers of one sketch, one per
// counter row and every row `width` counters wide, applied to a column of
// keys in a single call that yields flat counter indices. It is immutable
// once built and carries no scratch, so cloned sketch replicas share one and
// hash from many goroutines at once.
type Rows struct {
	hashers []Hasher
	width   uint64
	// poly holds the rows' constants when Index can take its fused loop;
	// nil otherwise.
	poly []polyRow
}

// polyRow is one pairwise polynomial row h(x) = ((a*x + b) mod p) & mask,
// with the offset of the row's first counter in the flat array.
type polyRow struct{ a, b, off uint64 }

// NewRows builds the kernel for a sketch whose row r hashes with hashers[r]
// into counters [r*width, (r+1)*width) of one flat array. A hasher's range
// may exceed the width (multiply-shift rounds its range up to a power of
// two); buckets are then reduced modulo the width, as the scalar sketches do.
func NewRows(hashers []Hasher, width int) *Rows {
	if width < 1 {
		panic("hashing: NewRows requires width >= 1")
	}
	rs := &Rows{hashers: hashers, width: uint64(width)}
	if rs.width&(rs.width-1) != 0 {
		return rs
	}
	poly := make([]polyRow, len(hashers))
	for r, h := range hashers {
		p, ok := h.(*PolyHash)
		if !ok || len(p.coeffs) != 2 || p.m != rs.width {
			return rs
		}
		poly[r] = polyRow{a: p.coeffs[1], b: p.coeffs[0], off: uint64(r) * rs.width}
	}
	rs.poly = poly
	return rs
}

// Index writes the flat counter index of keys[i] in row r,
//
//	r*width + hashers[r].Hash(keys[i]) % width,
//
// to dst[r*stride+i] for every row and key: row r of the index matrix starts
// at dst[r*stride], so stride must be at least len(keys) and dst long enough
// to hold the last row's len(keys) entries.
//
// When every row is a pairwise PolyHash ranging over a power-of-two width —
// what Count-Min, Count-Sketch and the tracker build by default — the key is
// reduced mod p once for all rows and the rows run four at a time as
// independent multiply chains in one loop body, each ending in the single
// reduction of affine61 and a mask. Any other family, degree or range goes
// row by row through its own HashBatch kernel. Both produce exactly the
// scalar Hash's buckets.
func (rs *Rows) Index(keys, dst []uint64, stride int) {
	n := len(keys)
	if rs.poly == nil {
		for r, h := range rs.hashers {
			row := dst[r*stride:][:n]
			HashBatch(h, keys, row)
			off, w := uint64(r)*rs.width, rs.width
			if h.Range() != w {
				for i := range row {
					row[i] = row[i]%w + off
				}
			} else {
				for i := range row {
					row[i] += off
				}
			}
		}
		return
	}
	mask := rs.width - 1
	r := 0
	for ; r+4 <= len(rs.poly); r += 4 {
		p0, p1, p2, p3 := rs.poly[r], rs.poly[r+1], rs.poly[r+2], rs.poly[r+3]
		d0, d1 := dst[r*stride:][:n], dst[(r+1)*stride:][:n]
		d2, d3 := dst[(r+2)*stride:][:n], dst[(r+3)*stride:][:n]
		for i, k := range keys {
			x := mod61(k)
			d0[i] = affine61(p0.a, x, p0.b)&mask + p0.off
			d1[i] = affine61(p1.a, x, p1.b)&mask + p1.off
			d2[i] = affine61(p2.a, x, p2.b)&mask + p2.off
			d3[i] = affine61(p3.a, x, p3.b)&mask + p3.off
		}
	}
	for ; r < len(rs.poly); r++ {
		p, d := rs.poly[r], dst[r*stride:][:n]
		for i, k := range keys {
			d[i] = affine61(p.a, mod61(k), p.b)&mask + p.off
		}
	}
}
