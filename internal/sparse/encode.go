package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
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
// extended slice, reallocating only when buf lacks capacity: the
// zero-allocation publish path (callers keep one wire buffer per worker
// or draw one from a pool). The appended bytes are identical to
// Encode's. A run is written as it stands; an indexed vector is sorted
// first.
func (v *Vector) EncodeTo(buf []byte) []byte {
	need := v.EncodedSize()
	buf = ensureCap(buf, need)
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

// ensureCap returns buf with room for at least extra more bytes.
func ensureCap(buf []byte, extra int) []byte {
	if cap(buf)-len(buf) >= extra {
		return buf
	}
	nb := make([]byte, len(buf), len(buf)+extra)
	copy(nb, buf)
	return nb
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
// into the sparse accumulator v — the scatter exchange's chunk fold
// and the kernel the benchmark's replay probe times; the tree folds
// through FoldScratch.FoldEncoded instead, which matches it byte for
// byte. Each coordinate's contributions accumulate in call order, so a
// fixed fold order yields bit-deterministic sums. It returns the
// number of entries folded.
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

// AppendEncodedRange appends to dst the encoding of the sub-vector of
// buf whose indices lie in [lo, hi), and returns the extended slice.
// Because encoded entries are ascending, the range is one contiguous
// run: the result is a patched header plus a single copy, no
// re-encoding. This is how the scatter exchange splits one encoded
// update into per-chunk contributions.
func AppendEncodedRange(dst, buf []byte, lo, hi uint32) ([]byte, error) {
	n, err := encodedLen(buf, "split encoded")
	if err != nil {
		return dst, err
	}
	entry := func(k int) uint32 {
		return binary.LittleEndian.Uint32(buf[sparseHeaderSize+k*sparseEntrySize:])
	}
	start := sort.Search(n, func(k int) bool { return entry(k) >= lo })
	end := start + sort.Search(n-start, func(k int) bool { return entry(start+k) >= hi })
	m := end - start
	dst = ensureCap(dst, sparseHeaderSize+m*sparseEntrySize)
	off := len(dst)
	dst = dst[:off+sparseHeaderSize]
	binary.LittleEndian.PutUint32(dst[off:], uint32(m))
	return append(dst, buf[sparseHeaderSize+start*sparseEntrySize:sparseHeaderSize+end*sparseEntrySize]...), nil
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
	buf = ensureCap(buf, need)
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

// DecodeDense parses a vector produced by Dense.Encode.
func DecodeDense(buf []byte) (Dense, error) {
	if len(buf) < denseHeaderSize {
		return nil, fmt.Errorf("sparse: decode dense: short buffer (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	want := DenseEncodedSize(n)
	if len(buf) != want {
		return nil, fmt.Errorf("sparse: decode dense: length %d, want %d for %d elements", len(buf), want, n)
	}
	d := make(Dense, n)
	off := denseHeaderSize
	for i := 0; i < n; i++ {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += denseEntrySize
	}
	return d, nil
}
