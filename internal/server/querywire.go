package server

import (
	"encoding/binary"
	"math"

	"repro/internal/frame"
)

// Batch read wire formats.
//
// POST /v1/query accepts a whole column of point-query keys in one of two
// bodies, selected by Content-Type:
//
//   - application/json: a QueryBatchRequest object, {"keys":[7,8,...]}
//   - application/x-sketch-keys: the length-prefixed binary key column below,
//     the read-side twin of the "SKB3" ingest batch (8 bytes per key instead
//     of decimal JSON plus parsing; unlike SKB3, keys are not narrowed).
//
// Binary key column layout (integers big-endian):
//
//	magic [4]byte "SKQ1"
//	count uint32
//	count x (key uint64)
//
// The answer is a QueryBatchResponse JSON object by default; clients that
// send Accept: application/x-sketch-estimates get the binary estimate column
// below instead, which the reusable client (BatchQuerier) decodes straight
// into its retained buffers:
//
//	magic [4]byte "SKE1"
//	gen   int64  write generation of the epoch that answered (two's complement)
//	count uint32
//	count x (estimate float64, IEEE-754 bits)
//
// Both formats are versioned by their magic: a layout change bumps the
// trailing digit and old decoders reject the new bytes outright.

// Content types of the batch read path.
const (
	contentTypeKeys      = "application/x-sketch-keys"
	contentTypeEstimates = "application/x-sketch-estimates"
)

// keyColumnMagic guards the binary key-column format.
var keyColumnMagic = [4]byte{'S', 'K', 'Q', '1'}

// keyRecordLen is the size of one key.
const keyRecordLen = 8

// estimateColumnMagic guards the binary estimate-column format.
var estimateColumnMagic = [4]byte{'S', 'K', 'E', '1'}

// estimateRecordLen is the size of one estimate.
const estimateRecordLen = 8

// QueryBatchRequest is the JSON body of POST /v1/query.
type QueryBatchRequest struct {
	Keys []uint64 `json:"keys"`
}

// QueryBatchResponse is the JSON body of POST /v1/query: estimates in key
// order, all answered from one pinned read epoch at generation Gen.
type QueryBatchResponse struct {
	Estimates []float64 `json:"estimates"`
	Gen       int64     `json:"gen"`
}

// AppendKeyColumns appends the binary encoding of a key column to buf and
// returns the extended slice.
func AppendKeyColumns(buf []byte, keys []uint64) []byte {
	buf = append(buf, keyColumnMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keys)))
	for _, key := range keys {
		buf = binary.BigEndian.AppendUint64(buf, key)
	}
	return buf
}

// DecodeKeyColumns parses a binary key column, appending to the caller's
// (typically reused) buffer and returning the extended slice. The count word
// is validated against the actual body length before any allocation, so a
// corrupt header cannot demand unbounded memory.
func DecodeKeyColumns(data []byte, keys []uint64) ([]uint64, error) {
	r := frame.NewReader(data, "server: key column")
	r.Magic(keyColumnMagic, nil)
	n := r.U32()
	payload := r.Records(uint64(n), keyRecordLen)
	if err := r.Err(); err != nil {
		return keys, err
	}
	for i := 0; i < int(n); i++ {
		keys = append(keys, binary.BigEndian.Uint64(payload[i*keyRecordLen:i*keyRecordLen+keyRecordLen]))
	}
	return keys, nil
}

// AppendEstimateColumns appends the binary encoding of an estimate column
// answered at write generation gen to buf and returns the extended slice.
func AppendEstimateColumns(buf []byte, gen int64, ests []float64) []byte {
	buf = append(buf, estimateColumnMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(gen))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ests)))
	for _, est := range ests {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(est))
	}
	return buf
}

// DecodeEstimateColumns parses a binary estimate column, appending to the
// caller's (typically reused) buffer, and returns the extended slice plus the
// write generation the estimates were answered at. Like the other decoders,
// the count word is checked against the body length before anything grows.
func DecodeEstimateColumns(data []byte, ests []float64) ([]float64, int64, error) {
	r := frame.NewReader(data, "server: estimate column")
	r.Magic(estimateColumnMagic, nil)
	gen := int64(r.U64())
	n := r.U32()
	payload := r.Records(uint64(n), estimateRecordLen)
	if err := r.Err(); err != nil {
		return ests, 0, err
	}
	for i := 0; i < int(n); i++ {
		ests = append(ests, math.Float64frombits(binary.BigEndian.Uint64(payload[i*estimateRecordLen:i*estimateRecordLen+estimateRecordLen])))
	}
	return ests, gen, nil
}
