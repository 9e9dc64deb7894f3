// Package sparse implements the sparse and dense float64 vector types
// used throughout MLLess: model parameters are dense, per-step updates
// (gradients, filtered deltas) are sparse. The binary encoding defined
// here determines the byte counts charged by the simulated network links,
// exactly as serialized update size determined Redis traffic in the
// paper's prototype.
//
// A Vector is an ascending run: two compact arrays, indices strictly
// ascending, no exact zero. The step path writes its runs whole
// (gradients, and the baselines' gradient sums, are emitted from a
// FoldScratch; the momentum optimizers, Adam and the ISP filter read
// their input with Entries and write their output with WriteRun; SGD
// copies and scales its run), and every whole-vector operation,
// encoding included, is one walk over exactly Len entries in index
// order. Set, Add and Remove edit the run in place: an index past the
// last entry appends, any other is found by binary search and inserted
// or deleted with a shift, so building a vector out of order costs one
// shift per entry.
package sparse

import (
	"fmt"
	"slices"
)

// Vector is a sparse float64 vector keyed by coordinate index.
// The zero value is an empty vector ready for use.
//
// Indices must fit in uint32 (the binary encoding uses 4-byte indices);
// the largest model in the repository (PMF on the MovieLens-20M-scale
// dataset) has well under 2^32 parameters.
//
// Entry k is (idx[k], val[k]): idx is strictly ascending and no entry
// holds an exact zero. Get binary-searches and the walks read the
// entries in place, so the read-only methods never write and a vector
// may be shared by concurrent readers (mini-batch vectors are).
type Vector struct {
	idx []uint32
	val []float64
}

// New returns an empty sparse vector.
func New() *Vector { return &Vector{} }

// Len reports the number of non-zero entries.
func (v *Vector) Len() int { return len(v.idx) }

// search returns the position of index i in the run, or the position
// where it belongs, and whether it is present. An index past the last
// entry, the order runs are built in, costs one comparison.
func (v *Vector) search(i uint32) (int, bool) {
	if n := len(v.idx); n == 0 || v.idx[n-1] < i {
		return n, false
	}
	return slices.BinarySearch(v.idx, i)
}

// Get returns the value at index i (0 when absent).
func (v *Vector) Get(i uint32) float64 {
	if k, ok := v.search(i); ok {
		return v.val[k]
	}
	return 0
}

// Set stores val at index i. Setting an exact zero removes the entry so
// that Len always equals the number of stored non-zeros.
func (v *Vector) Set(i uint32, val float64) {
	if val == 0 {
		v.Remove(i)
		return
	}
	k, ok := v.search(i)
	if ok {
		v.val[k] = val
		return
	}
	v.idx = slices.Insert(v.idx, k, i)
	v.val = slices.Insert(v.val, k, val)
}

// Add accumulates val into index i, removing the entry if the sum
// cancels to exactly zero. Adding ±0 changes nothing.
func (v *Vector) Add(i uint32, val float64) {
	if val == 0 {
		return
	}
	k, ok := v.search(i)
	if !ok {
		v.idx = slices.Insert(v.idx, k, i)
		v.val = slices.Insert(v.val, k, val)
		return
	}
	if s := v.val[k] + val; s != 0 {
		v.val[k] = s
		return
	}
	v.removeAt(k)
}

// Remove deletes the entry at index i and returns its previous value.
func (v *Vector) Remove(i uint32) float64 {
	k, ok := v.search(i)
	if !ok {
		return 0
	}
	val := v.val[k]
	v.removeAt(k)
	return val
}

// removeAt deletes entry k.
func (v *Vector) removeAt(k int) {
	v.idx = slices.Delete(v.idx, k, k+1)
	v.val = slices.Delete(v.val, k, k+1)
}

// Scale multiplies every entry by s. Scaling by 0 clears the vector.
func (v *Vector) Scale(s float64) {
	if s == 0 {
		v.Clear()
		return
	}
	for k := range v.val {
		v.val[k] *= s
	}
}

// Entries calls fn once with v's entries in ascending index order, as
// two parallel arrays: v's own. fn must not modify v or retain the
// slices. It is the bulk read of the step path: one call per vector,
// none per entry.
func (v *Vector) Entries(fn func(idx []uint32, val []float64)) { fn(v.idx, v.val) }

// WriteRun replaces v's contents with a run built in place: fill gets
// v's entry arrays emptied, with the capacity they have, appends a
// strictly ascending, zero-free run to them and returns the extended
// arrays, which v keeps. fill must not use v.
func (v *Vector) WriteRun(fill func(idx []uint32, val []float64) ([]uint32, []float64)) {
	v.idx, v.val = fill(v.idx[:0], v.val[:0])
}

// Clear removes all entries, retaining the allocation.
func (v *Vector) Clear() { v.idx, v.val = v.idx[:0], v.val[:0] }

// CopyFrom replaces v's contents with a copy of src, bit-identical
// values included, reusing v's storage when it is large enough: the
// zero-allocation counterpart of Clone for scratch vectors reused
// across steps.
func (v *Vector) CopyFrom(src *Vector) {
	v.idx = append(v.idx[:0], src.idx...)
	v.val = append(v.val[:0], src.val...)
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := &Vector{}
	c.CopyFrom(v)
	return c
}

// ForEach calls fn for every non-zero entry in ascending index order.
func (v *Vector) ForEach(fn func(i uint32, val float64)) {
	for k, i := range v.idx {
		fn(i, v.val[k])
	}
}

// Equal reports whether two sparse vectors hold identical entries. It
// short-circuits on the first mismatch.
func (v *Vector) Equal(other *Vector) bool {
	return slices.Equal(v.idx, other.idx) && slices.Equal(v.val, other.val)
}

// String renders up to eight entries, in ascending index order, for
// debugging.
func (v *Vector) String() string {
	s := "sparse{"
	for k, i := range v.idx[:min(len(v.idx), 8)] {
		if k > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%.4g", i, v.val[k])
	}
	if n := len(v.idx); n > 8 {
		s += fmt.Sprintf(" …(+%d)", n-8)
	}
	return s + "}"
}

// Dense is a dense float64 vector.
type Dense []float64

// NewDense returns a zeroed dense vector of length n.
func NewDense(n int) Dense { return make(Dense, n) }

// Clone returns a deep copy.
func (d Dense) Clone() Dense {
	c := make(Dense, len(d))
	copy(c, d)
	return c
}

// AddSparse accumulates a sparse vector into d (d += v), in entry
// order. Indices outside d are ignored.
func (d Dense) AddSparse(v *Vector) {
	for k, i := range v.idx {
		if int(i) < len(d) {
			d[i] += v.val[k]
		}
	}
}

// AddScaledSparse accumulates s*v into d.
func (d Dense) AddScaledSparse(v *Vector, s float64) {
	for k, i := range v.idx {
		if int(i) < len(d) {
			d[i] += s * v.val[k]
		}
	}
}
