package hashing

// Batch kernels. Every hash family in the package also implements a batched
// contract that maps a whole column of keys in one call:
//
//	HashBatch(keys, dst)  writes Hash(keys[i]) to dst[i]
//	SignBatch(keys, dst)  writes Sign(keys[i]) to dst[i]
//
// The point is mechanical sympathy, not new math: a sketch update is a sparse
// matrix-vector product, and the matrix rows are defined by these hash
// functions. Applying one row to a column of keys in a tight concrete loop —
// instead of one interface-dispatched Hash call per item — lets the compiler
// devirtualize the kernel, hoist the per-family constants out of the loop and
// elide bounds checks, which is what makes the sketches' UpdateBatch fast.
// The batched results are defined to be bit-identical to the scalar ones.
//
// The kernels are pure functions of (hasher, keys): they carry no internal
// scratch, so a hasher shared between cloned sketch replicas (the engine's
// sharding pattern) can be used from many goroutines at once.

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
			x := mod61(k)
			dst[i] = mod61(mulmod61(a1, x) + a0)
		}
	default:
		coeffs := p.coeffs
		for i, k := range keys {
			x := mod61(k)
			acc := uint64(0)
			for j := len(coeffs) - 1; j >= 0; j-- {
				acc = mod61(mulmod61(acc, x) + coeffs[j])
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
			x := mod61(k)
			r := mod61(mulmod61(a1, x) + a0)
			dst[i] = 1 - 2*float64(r&1)
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
