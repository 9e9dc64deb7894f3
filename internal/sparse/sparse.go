// Package sparse implements the sparse and dense float64 vector types
// used throughout MLLess: model parameters are dense, per-step updates
// (gradients, filtered deltas) are sparse. The binary encoding defined
// here determines the byte counts charged by the simulated network links,
// exactly as serialized update size determined Redis traffic in the
// paper's prototype.
//
// A Vector keeps its entries as two compact arrays and is in one of two
// states. An ascending run holds them in strictly ascending index order
// with nothing else behind them: it is what the step path produces
// (gradients, and the baselines' gradient sums, are emitted from a
// FoldScratch; the momentum optimizers, Adam and the ISP filter read
// their input with Entries and write their output with WriteRun; SGD
// copies and scales its run), and every whole-vector operation, sorted ones and encoding included, is a
// branch-free walk over exactly Len entries. An indexed vector keeps its
// entries in insertion order and finds them through a purpose-built
// open-addressing table (uint32 keys, Fibonacci hashing, linear probing,
// backward-shift deletion) rather than a Go map, for callers that
// accumulate into it; its sorted extraction uses an LSD radix sort. A run
// becomes indexed the first time Set, Add or Remove probes it; an
// indexed vector becomes a run again only when it is overwritten: by
// Append once emptied, by CopyFrom of a run, or by FoldScratch.EmitTo.
package sparse

import (
	"fmt"
	"math"
	"slices"
)

// Vector is a sparse float64 vector keyed by coordinate index.
// The zero value is an empty vector ready for use (construct with New
// for symmetry with NewWithCapacity).
//
// Indices must fit in uint32 (the binary encoding uses 4-byte indices);
// the largest model in the repository (PMF on the MovieLens-20M-scale
// dataset) has well under 2^32 parameters.
//
// Entry k is (idx[k], val[k]); no entry holds an exact zero. tab tells
// the two states apart:
//
//   - Run (tab == nil; the zero value is an empty run): idx is strictly
//     ascending and the arrays may have any capacity. Get binary-searches,
//     and the sorted walks (ForEachSorted, Dot, the norms, EncodeTo) read
//     the entries in place.
//   - Indexed (tab != nil): entries sit in insertion order, except that
//     Remove moves the last entry into the position it frees. tab is a
//     power-of-two table mapping a slot to entry position + 1 (0 =
//     empty) that indexes every entry. idx and val are always allocated
//     at exactly ¾ of len(tab) — the load factor — so a full entry array
//     is the signal to grow and append never reallocates: memory is 4 +
//     ¾·12 = 13 bytes per slot, whatever the runtime's slice growth
//     policy.
//
// Read-only methods never change the state, so a vector may be shared
// by concurrent readers (mini-batch vectors are). Set, Add of a non-zero
// value and Remove index a run first. CopyFrom, Clone and Scale keep the
// source's state and copy no table into a run; Clear keeps the state (an
// indexed vector keeps its table for reuse); DecodeInto and
// NewWithCapacity produce an indexed vector; Append on an empty vector,
// WriteRun and FoldScratch.EmitTo produce a run.
type Vector struct {
	idx []uint32
	val []float64
	tab []uint32
}

// minCapacity is the initial table size (power of two).
const minCapacity = 16

// New returns an empty sparse vector.
func New() *Vector { return &Vector{} }

// NewWithCapacity returns an empty sparse vector with room for n entries
// before the first grow.
func NewWithCapacity(n int) *Vector {
	v := &Vector{}
	v.alloc(tableSize(n))
	return v
}

// tableSize returns the smallest table that holds entries under the ¾
// load factor.
func tableSize(entries int) int {
	capacity := minCapacity
	for capacity*3 < entries*4 {
		capacity *= 2
	}
	return capacity
}

// alloc replaces the storage with an empty table of the given size and
// entry arrays of ¾ that capacity.
func (v *Vector) alloc(capacity int) {
	v.tab = make([]uint32, capacity)
	v.idx = make([]uint32, 0, capacity/4*3)
	v.val = make([]float64, 0, capacity/4*3)
}

// hash spreads a key over the table (Fibonacci hashing).
func hashKey(k uint32, mask uint32) uint32 {
	return (k * 2654435761) & mask
}

// find returns the slot of key i and its entry position + 1 or, if
// absent, the empty slot where it would be inserted and 0.
func (v *Vector) find(i uint32) (slot, e uint32) {
	mask := uint32(len(v.tab) - 1)
	slot = hashKey(i, mask)
	for {
		e = v.tab[slot]
		if e == 0 || v.idx[e-1] == i {
			return slot, e
		}
		slot = (slot + 1) & mask
	}
}

// grow doubles the table, keeping the entries and their order.
func (v *Vector) grow() { v.rebuild(len(v.tab) * 2) }

// buildIndex turns a run into an indexed vector, in a table just large
// enough for its entries.
func (v *Vector) buildIndex() { v.rebuild(tableSize(len(v.idx))) }

// rebuild moves the entries, in order, into fresh storage with a table
// of the given size and indexes them.
func (v *Vector) rebuild(capacity int) {
	idx, val := v.idx, v.val
	v.alloc(capacity)
	v.idx = append(v.idx, idx...)
	v.val = append(v.val, val...)
	v.index()
}

// index points an empty table at every entry.
func (v *Vector) index() {
	for k, i := range v.idx {
		v.tab[v.emptySlot(i)] = uint32(k + 1)
	}
}

// emptySlot returns the slot where key i, known to be absent, belongs.
func (v *Vector) emptySlot(i uint32) uint32 {
	mask := uint32(len(v.tab) - 1)
	slot := hashKey(i, mask)
	for v.tab[slot] != 0 {
		slot = (slot + 1) & mask
	}
	return slot
}

// insert appends a (key, val) pair known to be absent; val must be
// non-zero and the table must have room.
func (v *Vector) insert(i uint32, val float64) {
	v.insertAt(v.emptySlot(i), i, val)
}

// insertAt appends an absent (key, val) pair whose empty slot find
// already located, growing first when the entry arrays are full (the
// table is at its load factor).
func (v *Vector) insertAt(slot, i uint32, val float64) {
	if len(v.idx) == cap(v.idx) {
		v.grow()
		slot = v.emptySlot(i)
	}
	v.idx = append(v.idx, i)
	v.val = append(v.val, val)
	v.tab[slot] = uint32(len(v.idx))
}

// Len reports the number of non-zero entries.
func (v *Vector) Len() int { return len(v.idx) }

// Get returns the value at index i (0 when absent). On a run it
// binary-searches, so it never builds the index.
func (v *Vector) Get(i uint32) float64 {
	if v.tab == nil {
		if k, ok := slices.BinarySearch(v.idx, i); ok {
			return v.val[k]
		}
		return 0
	}
	if _, e := v.find(i); e != 0 {
		return v.val[e-1]
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
	if v.tab == nil {
		v.buildIndex()
	}
	slot, e := v.find(i)
	if e != 0 {
		v.val[e-1] = val
		return
	}
	v.insertAt(slot, i, val)
}

// Append stores val at index i exactly as Set does, but appends without
// a probe when v is a run whose indices all lie below i: the way to
// build a run in ascending order. On an empty vector it starts a run,
// releasing any table. Anything else falls back to Set, which indexes
// the entries first.
func (v *Vector) Append(i uint32, val float64) {
	if len(v.idx) == 0 {
		v.tab = nil
	} else if v.tab != nil || v.idx[len(v.idx)-1] >= i {
		v.Set(i, val)
		return
	}
	if val != 0 {
		v.idx = append(v.idx, i)
		v.val = append(v.val, val)
	}
}

// Add accumulates val into index i, removing the entry if the sum
// cancels to exactly zero. Adding ±0 changes nothing, so it does not
// index a run either.
func (v *Vector) Add(i uint32, val float64) {
	if val == 0 {
		return
	}
	if v.tab == nil {
		v.buildIndex()
	}
	slot, e := v.find(i)
	if e != 0 {
		s := v.val[e-1] + val
		if s == 0 {
			v.removeAt(slot)
			return
		}
		v.val[e-1] = s
		return
	}
	v.insertAt(slot, i, val)
}

// Remove deletes the entry at index i and returns its previous value.
func (v *Vector) Remove(i uint32) float64 {
	if len(v.idx) == 0 {
		return 0
	}
	if v.tab == nil {
		v.buildIndex()
	}
	slot, e := v.find(i)
	if e == 0 {
		return 0
	}
	val := v.val[e-1]
	v.removeAt(slot)
	return val
}

// removeAt deletes the entry an occupied slot points at. The last entry
// moves into the freed position (and its slot is repointed) so the entry
// arrays stay compact; the table hole is then closed by backward-shift
// deletion (Knuth, TAOCP 6.4 algorithm R), preserving probe chains
// without tombstones: scan forward to the next empty slot, moving back
// every slot whose key's probe path crosses the hole.
func (v *Vector) removeAt(slot uint32) {
	mask := uint32(len(v.tab) - 1)
	p, last := v.tab[slot]-1, uint32(len(v.idx)-1)
	if p != last {
		// Repoint before touching the table: the probe chain that leads
		// to the last entry's slot may run through the one being freed.
		s := hashKey(v.idx[last], mask)
		for v.tab[s] != last+1 {
			s = (s + 1) & mask
		}
		v.tab[s] = p + 1
		v.idx[p], v.val[p] = v.idx[last], v.val[last]
	}
	v.idx, v.val = v.idx[:last], v.val[:last]

	hole := slot
	j := hole
	for {
		j = (j + 1) & mask
		e := v.tab[j]
		if e == 0 {
			break
		}
		home := hashKey(v.idx[e-1], mask)
		// The slot at j may fill the hole unless its key's home lies
		// cyclically within (hole, j] — then the hole is not on its
		// probe path.
		if cyclicIn(hole, home, j) {
			continue
		}
		v.tab[hole] = e
		hole = j
	}
	v.tab[hole] = 0
}

// cyclicIn reports whether k lies in the half-open cyclic interval
// (i, j].
func cyclicIn(i, k, j uint32) bool {
	if i < j {
		return k > i && k <= j
	}
	return k > i || k <= j
}

// AddVector accumulates other into v (v += other). other must not be v.
func (v *Vector) AddVector(other *Vector) {
	for k, i := range other.idx {
		v.Add(i, other.val[k])
	}
}

// AddScaledVector accumulates s*other into v (v += s*other). other must
// not be v.
func (v *Vector) AddScaledVector(other *Vector, s float64) {
	if s == 0 {
		return
	}
	for k, i := range other.idx {
		v.Add(i, s*other.val[k])
	}
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
// two parallel arrays: a run's own arrays, or an indexed vector's pairs
// sorted into pooled scratch. fn must not modify v or retain the
// slices. It is the bulk read of the step path: one call per vector,
// none per entry.
func (v *Vector) Entries(fn func(idx []uint32, val []float64)) {
	idx, val, ps := v.sorted()
	fn(idx, val)
	release(ps)
}

// WriteRun replaces v's contents with a run built in place: fill gets
// v's entry arrays emptied, with the capacity they have, appends a
// strictly ascending, zero-free run to them and returns the extended
// arrays, which v keeps. v's table, if any, is released. fill must not
// use v.
func (v *Vector) WriteRun(fill func(idx []uint32, val []float64) ([]uint32, []float64)) {
	v.tab = nil
	v.idx, v.val = fill(v.idx[:0], v.val[:0])
}

// Clear removes all entries, retaining the allocation and the state.
func (v *Vector) Clear() {
	clear(v.tab)
	v.idx, v.val = v.idx[:0], v.val[:0]
}

// reset empties the vector and guarantees room for entries inserts
// without an incremental grow, reusing the existing table when it is
// already large enough.
func (v *Vector) reset(entries int) {
	if capacity := tableSize(entries); len(v.tab) < capacity {
		v.alloc(capacity)
		return
	}
	v.Clear()
}

// CopyFrom replaces v's contents with a copy of src — same state, same
// entries in the same order, bit-identical values — reusing v's storage
// when it is large enough: the zero-allocation counterpart of Clone for
// scratch vectors reused across steps. Copying a run copies the entry
// arrays only; v's table, if any, is released.
func (v *Vector) CopyFrom(src *Vector) {
	if src.tab == nil {
		v.tab = nil
		v.idx = append(v.idx[:0], src.idx...)
		v.val = append(v.val[:0], src.val...)
		return
	}
	if len(v.tab) != len(src.tab) {
		v.alloc(len(src.tab))
	}
	copy(v.tab, src.tab)
	v.idx = append(v.idx[:0], src.idx...)
	v.val = append(v.val[:0], src.val...)
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := &Vector{}
	c.CopyFrom(v)
	return c
}

// ForEach calls fn for every non-zero entry in entry order: ascending
// for a run, insertion order (which Remove perturbs) for an indexed
// vector, so the order depends on how the vector was built.
// Use it only where the computation is per-coordinate independent;
// reductions that accumulate across coordinates must use ForEachSorted,
// because float addition is not associative.
func (v *Vector) ForEach(fn func(i uint32, val float64)) {
	for k, i := range v.idx {
		fn(i, v.val[k])
	}
}

// sorted returns v's entries in ascending index order: a run's own
// arrays, or an indexed vector's pairs sorted into pooled scratch, which
// the caller hands back to release once done with the slices.
func (v *Vector) sorted() ([]uint32, []float64, *pairScratch) {
	if v.tab == nil || len(v.idx) == 0 {
		return v.idx, v.val, nil
	}
	ps := pairPool.Get().(*pairScratch)
	idx, val := ps.extract(v)
	return idx, val, ps
}

// release returns scratch taken by sorted to the pool.
func release(ps *pairScratch) {
	if ps != nil {
		pairPool.Put(ps)
	}
}

// ForEachSorted calls fn for every non-zero entry in ascending index
// order: deterministic, at the cost of a pair sort over pooled scratch
// for an indexed vector (zero steady-state allocations; see pairs.go)
// and of nothing for a run.
func (v *Vector) ForEachSorted(fn func(i uint32, val float64)) {
	idx, vals, ps := v.sorted()
	for k, i := range idx {
		fn(i, vals[k])
	}
	release(ps)
}

// Dot returns the inner product with a dense vector, accumulated in
// ascending index order so results are run-to-run deterministic (the
// §6.1 sanity check depends on bit-identical losses across systems).
// Entries of v whose index falls outside d are ignored.
func (v *Vector) Dot(d Dense) float64 {
	idx, vals, ps := v.sorted()
	sum := 0.0
	for k, i := range idx {
		if int(i) < len(d) {
			sum += vals[k] * d[i]
		}
	}
	release(ps)
	return sum
}

// NormL2 returns the Euclidean norm of the vector (deterministic order).
func (v *Vector) NormL2() float64 {
	_, vals, ps := v.sorted()
	sum := 0.0
	for _, val := range vals {
		sum += val * val
	}
	release(ps)
	return math.Sqrt(sum)
}

// NormL1 returns the taxicab norm of the vector (deterministic order).
func (v *Vector) NormL1() float64 {
	_, vals, ps := v.sorted()
	sum := 0.0
	for _, val := range vals {
		sum += math.Abs(val)
	}
	release(ps)
	return sum
}

// Equal reports whether two sparse vectors hold identical entries. It
// short-circuits on the first mismatch.
func (v *Vector) Equal(other *Vector) bool {
	if len(v.idx) != len(other.idx) {
		return false
	}
	for k, i := range v.idx {
		if other.Get(i) != v.val[k] {
			return false
		}
	}
	return true
}

// String renders up to eight entries, in ascending index order, for
// debugging.
func (v *Vector) String() string {
	s := "sparse{"
	k := 0
	v.ForEachSorted(func(i uint32, val float64) {
		if k < 8 {
			if k > 0 {
				s += " "
			}
			s += fmt.Sprintf("%d:%.4g", i, val)
		}
		k++
	})
	if k > 8 {
		s += fmt.Sprintf(" …(+%d)", k-8)
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
// order. Indices outside d are ignored, matching Vector.Dot.
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

// Axpy computes d += s*x for dense x. The vectors must be equal length.
func (d Dense) Axpy(x Dense, s float64) {
	for i := range d {
		d[i] += s * x[i]
	}
}

// Dot returns the inner product with another dense vector of equal length.
func (d Dense) Dot(x Dense) float64 {
	sum := 0.0
	for i := range d {
		sum += d[i] * x[i]
	}
	return sum
}

// NormL2 returns the Euclidean norm.
func (d Dense) NormL2() float64 {
	sum := 0.0
	for _, v := range d {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Scale multiplies every element by s.
func (d Dense) Scale(s float64) {
	for i := range d {
		d[i] *= s
	}
}

// Fill sets every element to val.
func (d Dense) Fill(val float64) {
	for i := range d {
		d[i] = val
	}
}

// ToSparse converts the dense vector to a sparse one holding its
// non-zero entries. The indices are unique by construction, so entries
// are inserted directly (one probe each, no duplicate check) into a
// table grown once to its final size.
func (d Dense) ToSparse() *Vector {
	nnz := 0
	for _, val := range d {
		if val != 0 {
			nnz++
		}
	}
	v := NewWithCapacity(nnz)
	if nnz == 0 {
		return v
	}
	for i, val := range d {
		if val != 0 {
			v.insert(uint32(i), val)
		}
	}
	return v
}

// Average overwrites d with the element-wise mean of d and other, the
// one-shot reintegration step the scale-in scheduler performs when a
// worker leaves under ISP (§4.2, eviction policy).
func (d Dense) Average(other Dense) {
	for i := range d {
		d[i] = 0.5 * (d[i] + other[i])
	}
}
