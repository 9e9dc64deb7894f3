package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary layout of an encoded sparse vector:
//
//	uint32 count
//	count × (uint32 index, float64 value), indices ascending
//
// and of an encoded dense vector:
//
//	uint32 length
//	length × float64
//
// The sizes returned by EncodedSize/DenseEncodedSize are what the
// simulated network links charge for, so they intentionally match a
// realistic wire format rather than Go's in-memory representation.

const (
	sparseHeaderSize = 4
	sparseEntrySize  = 12 // uint32 index + float64 value
	denseHeaderSize  = 4
	denseEntrySize   = 8
)

// EncodedSize returns the number of bytes Encode will produce.
func (v *Vector) EncodedSize() int {
	return sparseHeaderSize + sparseEntrySize*v.Len()
}

// EncodedSizeFor returns the encoded size of a sparse vector with nnz
// non-zero entries without materializing one.
func EncodedSizeFor(nnz int) int {
	return sparseHeaderSize + sparseEntrySize*nnz
}

// Encode serializes the vector with ascending indices (deterministic).
func (v *Vector) Encode() []byte {
	return v.EncodeTo(make([]byte, 0, v.EncodedSize()))
}

// EncodeTo appends the vector's encoding to buf and returns the
// extended slice: the zero-allocation publish path (the exchanges keep
// each worker's payload buffers and reuse them once the store lets go).
// It reallocates only when buf lacks capacity, and then geometrically
// (slices.Grow), so a buffer reused across growing encodes reallocates
// O(log n) times. The appended bytes are identical to Encode's. A run
// is written as it stands; an indexed vector is sorted first.
func (v *Vector) EncodeTo(buf []byte) []byte {
	need := v.EncodedSize()
	buf = slices.Grow(buf, need)
	start := len(buf)
	buf = buf[:start+need]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(v.idx)))
	off := start + sparseHeaderSize
	idx, vals, ps := v.sorted()
	for k, i := range idx {
		binary.LittleEndian.PutUint32(buf[off:], i)
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(vals[k]))
		off += sparseEntrySize
	}
	release(ps)
	return buf
}

// encodedLen validates buf as a sparse encoding and returns its entry
// count; op names the caller in the error.
func encodedLen(buf []byte, op string) (int, error) {
	if len(buf) < sparseHeaderSize {
		return 0, fmt.Errorf("sparse: %s: short buffer (%d bytes)", op, len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if want := sparseHeaderSize + sparseEntrySize*n; len(buf) != want {
		return 0, fmt.Errorf("sparse: %s: length %d, want %d for %d entries", op, len(buf), want, n)
	}
	return n, nil
}

// Decode parses a vector produced by Encode.
func Decode(buf []byte) (*Vector, error) {
	v := New()
	if err := DecodeInto(v, buf); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeInto parses an encoded sparse vector into v, replacing its
// contents with an indexed vector but reusing its table when large
// enough — the zero-allocation counterpart of Decode for steady-state
// loops. Encoded
// entries are ascending and unique, so the fast path inserts each one
// directly (a single probe, no duplicate check, no incremental grows);
// buffers violating that order fall back to Set, which remains
// correct for any valid encoding.
func DecodeInto(v *Vector, buf []byte) error {
	n, err := encodedLen(buf, "decode")
	if err != nil {
		return err
	}
	v.reset(n)
	off := sparseHeaderSize
	prev := int64(-1)
	for k := 0; k < n; k++ {
		i := binary.LittleEndian.Uint32(buf[off:])
		val := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		if int64(i) > prev && val != 0 {
			v.insert(i, val)
		} else {
			v.Set(i, val)
		}
		if int64(i) > prev {
			prev = int64(i)
		}
		off += sparseEntrySize
	}
	return nil
}

// AddEncoded streams an encoded sparse vector (the Encode layout)
// directly into the dense accumulator d without materializing a map:
// the hot path for applying peer updates. Indices outside d are ignored,
// matching Dense.AddSparse. It returns the number of entries applied.
func AddEncoded(d Dense, buf []byte) (int, error) {
	n, err := encodedLen(buf, "apply encoded")
	if err != nil {
		return 0, err
	}
	off := sparseHeaderSize
	for k := 0; k < n; k++ {
		i := binary.LittleEndian.Uint32(buf[off:])
		val := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		if int(i) < len(d) {
			d[i] += val
		}
		off += sparseEntrySize
	}
	return n, nil
}

// AddEncodedSparse streams an encoded sparse vector (the Encode layout)
// into the sparse accumulator v. No exchange calls it: its callers are
// the benchmark replay's add_encoded_sparse probe and the fold oracles
// of the tests (vectorFold here, vectorTreeFold in internal/exchange),
// which FoldScratch.FoldEncoded matches byte for byte. Each
// coordinate's contributions accumulate in call order, so a fixed fold
// order yields bit-deterministic sums. It returns the number of entries
// folded.
func AddEncodedSparse(v *Vector, buf []byte) (int, error) {
	n, err := encodedLen(buf, "fold encoded")
	if err != nil {
		return 0, err
	}
	off := sparseHeaderSize
	for k := 0; k < n; k++ {
		i := binary.LittleEndian.Uint32(buf[off:])
		val := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		v.Add(i, val)
		off += sparseEntrySize
	}
	return n, nil
}

// DenseEncodedSize returns the encoded size of a dense vector of length n.
func DenseEncodedSize(n int) int {
	return denseHeaderSize + denseEntrySize*n
}

// Encode serializes the dense vector.
func (d Dense) Encode() []byte {
	return d.EncodeTo(make([]byte, 0, DenseEncodedSize(len(d))))
}

// EncodeTo appends the dense encoding to buf and returns the extended
// slice (see Vector.EncodeTo for the reuse contract).
func (d Dense) EncodeTo(buf []byte) []byte {
	need := DenseEncodedSize(len(d))
	buf = slices.Grow(buf, need)
	start := len(buf)
	buf = buf[:start+need]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(d)))
	off := start + denseHeaderSize
	for _, val := range d {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(val))
		off += denseEntrySize
	}
	return buf
}

// denseEncodedLen validates buf as a dense encoding and returns its
// element count; op names the caller in the error.
func denseEncodedLen(buf []byte, op string) (int, error) {
	if len(buf) < denseHeaderSize {
		return 0, fmt.Errorf("sparse: %s: short buffer (%d bytes)", op, len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if want := DenseEncodedSize(n); len(buf) != want {
		return 0, fmt.Errorf("sparse: %s: length %d, want %d for %d elements", op, len(buf), want, n)
	}
	return n, nil
}

// AverageEncoded overwrites d with the element-wise mean 0.5·(d[i] +
// r[i]) of d and the dense vector r encoded in buf (the Dense.Encode
// layout), reading r straight from its bytes: the one-shot
// reintegration step survivors perform when a worker leaves under ISP
// (§4.2, eviction policy). buf must hold exactly len(d) elements. It
// returns the element count averaged.
func AverageEncoded(d Dense, buf []byte) (int, error) {
	n, err := denseEncodedLen(buf, "average encoded")
	if err != nil {
		return 0, err
	}
	if n != len(d) {
		return 0, fmt.Errorf("sparse: average encoded: %d elements, want %d", n, len(d))
	}
	off := denseHeaderSize
	for i := range d {
		d[i] = 0.5 * (d[i] + math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
		off += denseEntrySize
	}
	return n, nil
}
