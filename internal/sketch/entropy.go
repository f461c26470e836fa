package sketch

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Entropy stage of the delta envelope ------------------------------------------
//
// The token stream of a delta is a few byte values used very often — the
// one-byte tokens of small integer counters and short zero runs — and the
// rest used rarely, so the envelope codes it with a per-envelope canonical
// Huffman code over token bytes (see the grammar in encoding.go). Everything
// about the code is a pure function of the token-byte histogram:
//
//   - codeLengths: Huffman's construction over the symbols sorted by (count,
//     symbol), two queues, a leaf winning ties; lengths past maxCodeLen are
//     folded back as JPEG's Adjust_BITS does; the counts per length are dealt
//     out longest first in the same order;
//   - appendLengthTable: the 256 lengths as maximal runs of equal lengths,
//     one byte a run (length<<4 | run-1), runs of at most 16;
//   - the method: coded when the table and the bitstream together are
//     shorter than the token stream, stored otherwise.
//
// The decoder recomputes all three from the tokens it decoded, so an envelope
// has one spelling and decode → encode is a fixed point.

// Envelope methods, the byte after rawLen.
const (
	methodStored  = 0
	methodHuffman = 1
)

const (
	// deltaHeaderLen is the envelope's fixed prefix: magic, version, kind,
	// rawLen, then the method at deltaMethodAt and the token-stream length
	// at deltaTokenLenAt.
	deltaMethodAt   = 6 + 4
	deltaTokenLenAt = deltaMethodAt + 1
	deltaHeaderLen  = deltaTokenLenAt + 4
	// maxCodeLen caps code lengths: they travel as nibbles.
	maxCodeLen = 15
	// fastBits is the width of the decoder's first-level table; the rare
	// longer codes are decoded by walking the lengths above it.
	fastBits = 11
)

// maxTokenLen bounds the token stream of an inner encoding of rawLen bytes.
// Tokens outgrow the bytes they spell only by the literals' tags and the
// ninth byte of a ±2^53 word's token, and a literal ends at 4 zeros (one
// token byte) or at an integer word: at most 2 bytes per 9 inner ones (a
// one-byte literal and then such a word), plus the last literal's tag.
func maxTokenLen(rawLen uint64) uint64 { return rawLen + rawLen/4 + 8 }

// histogram adds the byte counts of p to h, four interleaved tables so
// consecutive equal bytes do not wait on each other's increments.
func histogram(p []byte, h *[256]uint32) {
	var h1, h2, h3 [256]uint32
	for ; len(p) >= 4; p = p[4:] {
		h[p[0]]++
		h1[p[1]]++
		h2[p[2]]++
		h3[p[3]]++
	}
	for _, b := range p {
		h[b]++
	}
	for i := range h {
		h[i] += h1[i] + h2[i] + h3[i]
	}
}

// codeLengths sets lens to the code lengths, at most maxCodeLen, of the
// symbols hist counts (0 for the absent ones). A lone symbol gets length 1.
func codeLengths(hist *[256]uint32, lens *[256]uint8) {
	*lens = [256]uint8{}
	var buf [256]uint8
	leaves := buf[:0]
	for s, c := range hist {
		if c > 0 {
			leaves = append(leaves, uint8(s))
		}
	}
	n := len(leaves)
	switch n {
	case 0:
		return
	case 1:
		lens[leaves[0]] = 1
		return
	}
	slices.SortFunc(leaves, func(a, b uint8) int {
		return cmp.Or(cmp.Compare(hist[a], hist[b]), cmp.Compare(a, b))
	})
	// Nodes 0..n-1 are the leaves in that order, n.. the internal nodes in
	// the order they are made, which is also their weight order.
	var weight [2*256 - 1]uint64
	var parent [2*256 - 1]uint16
	for i, s := range leaves {
		weight[i] = uint64(hist[s])
	}
	leaf, node := 0, n
	for next := n; next < 2*n-1; next++ {
		for range 2 {
			pick := node
			if leaf < n && (node == next || weight[leaf] <= weight[node]) {
				pick = leaf
				leaf++
			} else {
				node++
			}
			parent[pick] = uint16(next)
			weight[next] += weight[pick]
		}
	}
	var depth [2*256 - 1]uint8
	var count [256]int // leaves per depth
	deepest := 0
	for i := 2*n - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
		if i < n {
			count[depth[i]]++
			deepest = max(deepest, int(depth[i]))
		}
	}
	// Fold the levels past maxCodeLen up: two leaves at depth i (siblings,
	// and the count at the deepest level is always even) become one at i-1
	// and a leaf at the deepest level j < i-1 that has one splits into two
	// at j+1. The Kraft sum stays 1.
	for i := deepest; i > maxCodeLen; i-- {
		for count[i] > 0 {
			j := i - 2
			for count[j] == 0 {
				j--
			}
			count[i] -= 2
			count[i-1]++
			count[j+1] += 2
			count[j]--
		}
	}
	k := 0
	for l := min(deepest, maxCodeLen); l >= 1; l-- {
		for range count[l] {
			lens[leaves[k]] = uint8(l)
			k++
		}
	}
}

// appendLengthTable appends the length table of lens.
func appendLengthTable(dst []byte, lens *[256]uint8) []byte {
	for s := 0; s < 256; {
		l, run := lens[s], 1
		for run < 16 && s+run < 256 && lens[s+run] == l {
			run++
		}
		dst = append(dst, l<<4|uint8(run-1))
		s += run
	}
	return dst
}

// codedLen is the length of the coded form: the table and the bitstream,
// padded to a whole byte.
func codedLen(tableLen int, hist *[256]uint32, lens *[256]uint8) uint64 {
	var bits uint64
	for s, c := range hist {
		bits += uint64(c) * uint64(lens[s])
	}
	return uint64(tableLen) + (bits+7)/8
}

// canonicalCodes returns each symbol's canonical code, right-aligned and
// shifted up past its 4-bit length, by (length, symbol) order: the codes of
// one length are consecutive, and each length's first code follows the last
// of the length before, doubled.
func canonicalCodes(lens *[256]uint8) (codes [256]uint32) {
	var count, next [maxCodeLen + 1]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		if l > 0 {
			codes[s] = next[l]<<4 | uint32(l)
			next[l]++
		}
	}
	return codes
}

// sealDelta completes the envelope whose header starts at env[at] and whose
// token stream is the rest of env: it fills in the method and the stream's
// length and, when coding is shorter, replaces the stream by the length table
// and the bitstream. The tokens move up in env's spare capacity far enough
// that the coder, writing from the stream's old start, never overtakes the
// token it reads next.
func sealDelta(env []byte, at int) []byte {
	p := at + deltaHeaderLen
	tokens := env[p:]
	binary.BigEndian.PutUint32(env[at+deltaTokenLenAt:], uint32(len(tokens)))
	var hist [256]uint32
	histogram(tokens, &hist)
	var lens [256]uint8
	codeLengths(&hist, &lens)
	var tbuf [256]byte
	table := appendLengthTable(tbuf[:0], &lens)
	if codedLen(len(table), &hist, &lens) >= uint64(len(tokens)) {
		env[at+deltaMethodAt] = methodStored
		return env
	}
	env[at+deltaMethodAt] = methodHuffman
	// The coder has written table + floor(bits/8) bytes when it reads
	// token j+1, whose bits are those of the first j+1 tokens.
	excess, bits := 0, 0
	for j, b := range tokens {
		bits += int(lens[b])
		excess = max(excess, bits>>3-j-1)
	}
	shift, n := len(table)+excess, len(tokens)
	env = slices.Grow(env, shift)[:p+shift+n]
	copy(env[p+shift:], env[p:p+n])
	code := canonicalCodes(&lens)
	out, src := env[p:], env[p+shift:]
	w := copy(out, table)
	var acc uint64 // the low nacc bits are pending, MSB first
	var nacc uint
	for _, b := range src {
		c := code[b]
		l := uint(c & 15)
		acc = acc<<(l&63) | uint64(c>>4)
		if nacc += l; nacc >= 32 {
			nacc -= 32
			binary.BigEndian.PutUint32(out[w:], uint32(acc>>(nacc&63)))
			w += 4
		}
	}
	for ; nacc >= 8; w++ {
		nacc -= 8
		out[w] = byte(acc >> nacc)
	}
	if nacc > 0 {
		out[w] = byte(acc << (8 - nacc))
		w++
	}
	return env[:p+w]
}

// DeltaStoredLen returns the length the delta envelope env would have with
// its token stream stored as is — env's own length when it is stored, or is
// not an envelope — so a transport can report what the entropy stage saved.
func DeltaStoredLen(env []byte) int {
	if len(env) < deltaHeaderLen || env[5] != kindDelta || env[deltaMethodAt] != methodHuffman {
		return len(env)
	}
	return deltaHeaderLen + int(binary.BigEndian.Uint32(env[deltaTokenLenAt:]))
}

// huffDecoder decodes one envelope's canonical code: a first-level table
// indexed by the next fastBits bits, and per-length first codes for the
// codes longer than that.
type huffDecoder struct {
	fast   [1 << fastBits]uint16 // symbol<<8 | length; 0 for a longer code
	first  [maxCodeLen + 1]uint16
	count  [maxCodeLen + 1]uint16
	offset [maxCodeLen + 1]uint16 // index in syms of each length's first symbol
	syms   [256]uint8             // symbols by (length, symbol)
}

// parseLengthTable reads a length table off the front of p into lens,
// returning how many bytes it took.
func parseLengthTable(p []byte, lens *[256]uint8) (int, error) {
	n := 0
	for s := 0; s < 256; n++ {
		if n == len(p) {
			return 0, fmt.Errorf("sketch: Delta: truncated code length table")
		}
		l, run := p[n]>>4, int(p[n]&15)+1
		if s+run > 256 {
			return 0, fmt.Errorf("sketch: Delta: code length table runs past 256 symbols")
		}
		for range run {
			lens[s] = l
			s++
		}
	}
	return n, nil
}

// build sets d up for the code of lens, which must be complete: its Kraft sum
// is 1, except that a lone symbol has length 1 and code 0.
func (d *huffDecoder) build(lens *[256]uint8) error {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	symbols, kraft := 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		symbols += count[l]
		kraft += count[l] << (maxCodeLen - l)
	}
	if kraft != 1<<maxCodeLen && !(symbols == 1 && count[1] == 1) {
		return fmt.Errorf("sketch: Delta: code lengths are not a complete prefix code (Kraft sum %d/%d)", kraft, 1<<maxCodeLen)
	}
	code, idx := 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		d.first[l], d.count[l], d.offset[l] = uint16(code), uint16(count[l]), uint16(idx)
		idx += count[l]
		code = (code + count[l]) << 1
	}
	next := d.offset
	for s, l := range lens {
		if l > 0 {
			d.syms[next[l]] = uint8(s)
			next[l]++
		}
	}
	d.fast = [1 << fastBits]uint16{}
	for l := 1; l <= fastBits; l++ {
		span := 1 << (fastBits - l)
		for i := range int(d.count[l]) {
			e := uint16(d.syms[int(d.offset[l])+i])<<8 | uint16(l)
			lo := (int(d.first[l]) + i) * span
			for j := lo; j < lo+span; j++ {
				d.fast[j] = e
			}
		}
	}
	return nil
}

// slow decodes a code longer than fastBits from the bits at the top of acc,
// returning length 0 for bits that start no code.
func (d *huffDecoder) slow(acc uint64) (byte, uint) {
	for l := fastBits + 1; l <= maxCodeLen; l++ {
		if i := uint16(acc>>(64-l)) - d.first[l]; i < d.count[l] {
			return d.syms[d.offset[l]+i], uint(l)
		}
	}
	return 0, 0
}

// The faults of a bitstream, package-level so that a tokenSource holds no
// error of its own making: escape analysis would then move the whole source,
// its decode table and chunk, to the heap.
var (
	errTruncatedBits = errors.New("sketch: Delta: truncated bitstream")
	errNoCode        = errors.New("sketch: Delta: bitstream holds a bit pattern that is no code")
)

// tokenSource hands the token parser the token stream — stored, or decoded
// off the bitstream a chunk at a time as the parser asks for it, so no more
// than a chunk of it is ever held — and counts the token bytes, for the check
// that the envelope is the one its tokens make.
type tokenSource struct {
	stored []byte // a stored stream's token bytes not yet handed out
	at, n  int    // a coded stream's decoded bytes at hand: chunk[at:n]
	left   int    // token bytes still in the bitstream
	raw    []byte // the bitstream not yet read
	acc    uint64 // bits read ahead of raw, MSB first
	nacc   uint
	fault  error // the bitstream ran short or held no code: nothing more comes
	hist   [256]uint32
	dec    huffDecoder
	chunk  [512]byte
}

// init sets s up for the envelope body after the header, returning the
// length table of a coded stream.
func (s *tokenSource) init(method byte, body []byte, tokenLen uint32) (table []byte, err error) {
	switch method {
	case methodStored:
		if uint64(len(body)) != uint64(tokenLen) {
			return nil, fmt.Errorf("sketch: Delta: stored token stream is %d bytes, header claims %d", len(body), tokenLen)
		}
		s.stored = body
		histogram(body, &s.hist)
		return nil, nil
	case methodHuffman:
		var lens [256]uint8
		n, err := parseLengthTable(body, &lens)
		if err != nil {
			return nil, err
		}
		if err := s.dec.build(&lens); err != nil {
			return nil, err
		}
		s.raw, s.left = body[n:], int(tokenLen)
		return body[:n], nil
	default:
		return nil, fmt.Errorf("sketch: Delta: unknown method %d", method)
	}
}

// remaining is how many token bytes are still to come.
func (s *tokenSource) remaining() int { return len(s.stored) + s.n - s.at + s.left }

// next returns the next token byte, or 0 once there is none.
func (s *tokenSource) next() byte {
	if len(s.stored) > 0 {
		b := s.stored[0]
		s.stored = s.stored[1:]
		return b
	}
	if s.at == s.n && !s.fill() {
		return 0
	}
	s.at++
	return s.chunk[s.at-1]
}

// read fills p, len(p) <= remaining(), with the next token bytes.
func (s *tokenSource) read(p []byte) {
	if len(s.stored) > 0 {
		s.stored = s.stored[copy(p, s.stored):]
		return
	}
	for len(p) > 0 {
		if s.at == s.n && !s.fill() {
			return
		}
		k := copy(p, s.chunk[s.at:s.n])
		s.at += k
		p = p[k:]
	}
}

// fill decodes the next chunk of the token stream into chunk. (It keeps
// indices, not a slice of chunk: a tokenSource pointing into itself would
// escape to the heap.)
func (s *tokenSource) fill() bool {
	if s.left == 0 || s.fault != nil {
		return false
	}
	out := s.chunk[:min(s.left, len(s.chunk))]
	acc, nacc, raw := s.acc, s.nacc, s.raw
	for i := range out {
		if nacc < maxCodeLen {
			// A whole word while 8 bytes remain: the bits it loads below
			// the ones counted are the next bytes' own, and the next
			// refill ORs the same bits over them.
			if len(raw) >= 8 {
				acc |= binary.BigEndian.Uint64(raw) >> nacc
				k := (63 - nacc) >> 3
				raw = raw[k:]
				nacc += k << 3
			} else {
				for ; nacc <= 56 && len(raw) > 0; nacc += 8 {
					acc |= uint64(raw[0]) << (56 - nacc)
					raw = raw[1:]
				}
			}
		}
		e := s.dec.fast[acc>>(64-fastBits)]
		sym, l := byte(e>>8), uint(e&maxCodeLen)
		if l-1 >= nacc { // a longer code, no code, or too few bits left
			if l == 0 {
				sym, l = s.dec.slow(acc)
			}
			if l == 0 || l > nacc {
				s.fault = errTruncatedBits
				if l == 0 {
					s.fault = errNoCode
				}
				s.left = 0
				return false
			}
		}
		acc <<= l & 63
		nacc -= l
		out[i] = sym
		s.hist[sym]++
	}
	s.acc, s.nacc, s.raw = acc, nacc, raw
	s.left -= len(out)
	s.at, s.n = 0, len(out)
	return true
}

// finish checks, once every token is read, that the envelope is the one
// sealDelta makes of those tokens: the same method, the same length table
// (table is the one received, for a coded stream), and a bitstream with no
// bytes left after the last code and zero padding bits in its last byte.
func (s *tokenSource) finish(method byte, table []byte, tokenLen uint32) error {
	if s.fault != nil {
		return s.fault
	}
	if method == methodHuffman && (len(s.raw) > 0 || s.nacc >= 8 || s.acc != 0) {
		return fmt.Errorf("sketch: Delta: bitstream has bytes or set padding bits after its last code")
	}
	var lens [256]uint8
	codeLengths(&s.hist, &lens)
	var tbuf [256]byte
	want := appendLengthTable(tbuf[:0], &lens)
	coded := codedLen(len(want), &s.hist, &lens) < uint64(tokenLen)
	switch {
	case method == methodStored && coded:
		return fmt.Errorf("sketch: Delta: stored token stream codes shorter: not the canonical envelope")
	case method == methodHuffman && !coded:
		return fmt.Errorf("sketch: Delta: coded token stream is not shorter than stored: not the canonical envelope")
	case method == methodHuffman && !bytes.Equal(table, want):
		return fmt.Errorf("sketch: Delta: code length table is not the one its tokens make")
	}
	return nil
}
