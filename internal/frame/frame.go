// Package frame reads and seals the big-endian binary formats that cross the
// daemon's process boundaries: the sketch encodings (SKC1) and the server's
// update batches (SKB3), key and estimate columns (SKQ1, SKE1), gossip delta
// frames (SKD1), stream frames (SKS1) and state transfers (SKP1). Each format
// keeps its own layout, documented beside its encoder; this package holds
// what they share: one bounds-checked cursor that every decoder parses
// through, and one CRC-32C trailer.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Float64ExpMask selects a float64's exponent field; all ones there means NaN
// or ±Inf, which no decoder accepts as a counter or a delta.
const Float64ExpMask = 0x7ff << 52

// Reader walks an encoding front to back. The first failure sticks: every
// later read returns zero values, so a decoder reads its fields in line and
// checks Err once. Every error begins with the name the reader was made with.
type Reader struct {
	buf  []byte
	name string
	err  error
}

// NewReader returns a reader over data whose errors begin with name, the
// format's (e.g. "server: delta frame").
func NewReader(data []byte, name string) Reader { return Reader{buf: data, name: name} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Len returns how many bytes are left.
func (r *Reader) Len() int { return len(r.buf) }

// Failf records a failure of the format's own rules unless one is recorded
// already; the message follows the reader's name.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.name+": "+format, args...)
	}
}

// Fail records err as it is, unless a failure is recorded already: for an
// error whose text names the format itself.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Take returns the next n bytes, or nil once the input is short of them.
func (r *Reader) Take(n int) []byte {
	if r.err == nil && len(r.buf) < n {
		r.Failf("truncated (need %d bytes, have %d)", n, len(r.buf))
	}
	if r.err != nil {
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Section reads a big-endian length of lenBytes bytes (2 or 4) and then that
// many bytes. A length above limit is refused before any byte of the section
// is taken, so a forged length cannot size anything.
func (r *Reader) Section(lenBytes, limit int) []byte {
	var n uint64
	if lenBytes == 2 {
		n = uint64(r.U16())
	} else {
		n = uint64(r.U32())
	}
	if r.err == nil && n > uint64(limit) {
		r.Failf("section is %d bytes (cap %d)", n, limit)
	}
	return r.Take(int(n))
}

// Magic takes the 4-byte magic and refuses any but want. A magic in old is a
// layout this release no longer reads, and is refused by name, wrapping
// retired.
func (r *Reader) Magic(want [4]byte, retired error, old ...[4]byte) {
	b := r.Take(4)
	switch {
	case b == nil || [4]byte(b) == want:
	case slices.Contains(old, [4]byte(b)):
		r.Failf("%s is %w", b, retired)
	default:
		r.Failf("bad magic %q", b)
	}
}

// Version takes a version byte and refuses any but want.
func (r *Reader) Version(want uint8) {
	if v := r.U8(); v != want {
		r.Failf("unsupported version %d (want %d)", v, want)
	}
}

// Records takes the rest of the input, which must be exactly n records of
// size bytes each: a count read off a header is held to the bytes present
// before anything is sized from it.
func (r *Reader) Records(n uint64, size int) []byte {
	if have := uint64(len(r.buf)); r.err == nil && (have%uint64(size) != 0 || have/uint64(size) != n) {
		r.Failf("payload is %d bytes, header claims %d records of %d bytes", have, n, size)
	}
	return r.Take(len(r.buf))
}

// Done returns the first failure, or refuses bytes left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Failf("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// AppendSection appends data behind its big-endian length in lenBytes bytes
// (2 or 4): the section Reader.Section reads.
func AppendSection[T string | []byte](buf []byte, lenBytes int, data T) []byte {
	if lenBytes == 2 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(data)))
	} else {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	}
	return append(buf, data...)
}

// castagnoli is the CRC-32C table every sealed format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal appends the CRC-32C of buf[start:], the trailer of the frame that
// begins at start.
func Seal(buf []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// Open checks that a sealed frame's last 4 bytes are the CRC-32C of the bytes
// before them, and returns those bytes. name begins the error.
func Open(sealed []byte, name string) ([]byte, error) {
	if len(sealed) < 4 {
		return nil, fmt.Errorf("%s: truncated (need 4 bytes, have %d)", name, len(sealed))
	}
	body := sealed[:len(sealed)-4]
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(sealed[len(body):]); got != want {
		return nil, fmt.Errorf("%s: CRC mismatch (computed %08x, trailer %08x)", name, got, want)
	}
	return body, nil
}
