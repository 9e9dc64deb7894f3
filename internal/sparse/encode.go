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
// O(log n) times. The appended bytes are identical to Encode's.
func (v *Vector) EncodeTo(buf []byte) []byte {
	need := v.EncodedSize()
	buf = slices.Grow(buf, need)
	start := len(buf)
	buf = buf[:start+need]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(v.idx)))
	off := start + sparseHeaderSize
	val := v.val
	for k, i := range v.idx {
		binary.LittleEndian.PutUint32(buf[off:], i)
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(val[k]))
		off += sparseEntrySize
	}
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

// entry returns entry k of an encoded sparse vector.
func entry(buf []byte, k int) (uint32, float64) {
	e := buf[sparseHeaderSize+k*sparseEntrySize:]
	return binary.LittleEndian.Uint32(e), math.Float64frombits(binary.LittleEndian.Uint64(e[4:]))
}

// DecodeInto parses an encoded sparse vector into v, replacing its
// contents but reusing its storage when large enough: the
// zero-allocation counterpart of Decode for steady-state loops. Encoded
// entries are ascending and unique, so they are appended while they
// ascend; an entry that does not (or an exact zero) goes through Set,
// which remains correct for any valid encoding.
func DecodeInto(v *Vector, buf []byte) error {
	n, err := encodedLen(buf, "decode")
	if err != nil {
		return err
	}
	v.Clear()
	for k := 0; k < n; k++ {
		i, val := entry(buf, k)
		if m := len(v.idx); val != 0 && (m == 0 || v.idx[m-1] < i) {
			v.idx = append(v.idx, i)
			v.val = append(v.val, val)
		} else {
			v.Set(i, val)
		}
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
// into the sparse accumulator v, with the sums of one Add per entry in
// encoding order: each coordinate's contributions accumulate in call
// order, so a fixed fold order yields bit-deterministic sums. A
// strictly ascending buffer, which is what Encode writes, is merged into
// the run in time linear in both; any other falls back to Add. No exchange
// calls it: its callers are the benchmark replay's add_encoded_sparse
// probe and the fold oracles of the tests (vectorFold here,
// vectorTreeFold in internal/exchange), which FoldScratch.FoldEncoded
// matches byte for byte. It returns the number of entries folded.
func AddEncodedSparse(v *Vector, buf []byte) (int, error) {
	n, err := encodedLen(buf, "fold encoded")
	if err != nil {
		return 0, err
	}
	if !ascending(buf, n) {
		for k := 0; k < n; k++ {
			v.Add(entry(buf, k))
		}
		return n, nil
	}
	v.merge(buf, n)
	return n, nil
}

// ascending reports whether the indices of buf's n entries strictly
// ascend.
func ascending(buf []byte, n int) bool {
	for k := 1; k < n; k++ {
		prev, _ := entry(buf, k-1)
		if i, _ := entry(buf, k); i <= prev {
			return false
		}
	}
	return true
}

// merge adds the n strictly ascending entries of buf into v. It
// writes back to front into arrays grown by n, so no entry of v is
// overwritten before it is read, adding a buffer value to v's where an
// index is in both (x + ±0 is x, as Add's skip of ±0 leaves it). A last
// pass closes the gap the shared indices leave below the written
// entries and drops the exact zeros: buffer values of ±0 at new
// indices, which Add ignores, and sums that cancel, which Add removes.
func (v *Vector) merge(buf []byte, n int) {
	m := len(v.idx)
	idx, val := slices.Grow(v.idx, n)[:m+n], slices.Grow(v.val, n)[:m+n]
	a, w, zeros := m-1, m+n-1, false
	for b := n - 1; b >= 0; b-- {
		i, x := entry(buf, b)
		for ; a >= 0 && idx[a] > i; a, w = a-1, w-1 {
			idx[w], val[w] = idx[a], val[a]
		}
		if a >= 0 && idx[a] == i {
			x = val[a] + x
			a--
		}
		zeros = zeros || x == 0
		idx[w], val[w] = i, x
		w--
	}
	// Entries 0…a never moved; w+1… hold the merged tail.
	out := a + 1
	if !zeros {
		copy(val[out:], val[w+1:])
		out += copy(idx[out:], idx[w+1:])
	} else {
		for k := w + 1; k < m+n; k++ {
			if val[k] != 0 {
				idx[out], val[out] = idx[k], val[k]
				out++
			}
		}
	}
	v.idx, v.val = idx[:out], val[:out]
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
