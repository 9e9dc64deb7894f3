package sparse

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// FoldScratch is a dense accumulator: a float64 sum per coordinate and
// a bitmap of the coordinates touched since the last emission. It folds
// encoded runs (FoldEncoded), single entries (Add) and rows of
// consecutive coordinates (AddRow), and emits either
// as an encoding or as a run in a Vector (EmitTo). Both arrays grow to a
// high-water mark of 8 bytes plus 1 bit per coordinate up to the largest
// index seen, and emission zeroes every touched slot, so a reused
// scratch never needs clearing. The zero value is ready for use. Memory
// follows the largest index, not the entry count, so the kernel suits a
// bounded coordinate space (a model's parameters); it is not safe for
// concurrent use.
type FoldScratch struct {
	sum     []float64
	touched []uint64
}

// FoldEncoded appends to dst the encoding of acc plus every run in
// runs (all in the EncodeTo layout) and returns the extended slice with
// the number of entries folded from runs — acc's own entries are not
// counted, as AddEncodedSparse counts only the buffer it folds into a
// Vector. Every input is validated before any is read, so an error
// leaves dst and the scratch untouched. Inputs need not be sorted or
// free of duplicates; the output is ascending and holds no exact zero.
//
// The result is byte-equal to folding the same inputs into an empty
// Vector with AddEncodedSparse, acc first and runs in order, and then
// calling EncodeTo. Each coordinate's values are added in that same
// order: acc, then runs in slice order, and within one input in
// encoding order. A Vector never stores an exact zero, so the dense
// slot's starting +0.0 reproduces its first insert (+0.0 + x == x), and
// after a sum cancels to exactly zero the Vector's re-insert of the
// next value matches the dense sum continuing from +0.0. A -0.0 input
// is a no-op in both (+0.0 + -0.0 == +0.0, and a slot that starts at
// +0.0 never becomes -0.0). Emission walks the bitmap in ascending
// coordinate order and writes the slots whose sum is non-zero, which
// is exactly the sorted, zero-free set EncodeTo writes. (The one value
// outside this argument is a signalling NaN, which a Vector stores as
// given and an addition quiets; no update the simulator computes holds
// one.)
func (s *FoldScratch) FoldEncoded(dst, acc []byte, runs [][]byte) ([]byte, int, error) {
	n, err := encodedLen(acc, "fold encoded")
	if err != nil {
		return dst, 0, err
	}
	hi := lastIndex(acc, n)
	folded := 0
	for _, run := range runs {
		m, err := encodedLen(run, "fold encoded")
		if err != nil {
			return dst, 0, err
		}
		folded += m
		hi = max(hi, lastIndex(run, m))
	}
	// The last entry of an ascending run is its largest index: sizing
	// for it up front keeps the add loop's grow check cold for every
	// encoding EncodeTo produces.
	s.reserve(hi)
	s.add(acc, n)
	for _, run := range runs {
		s.add(run, int(binary.LittleEndian.Uint32(run)))
	}
	return s.emit(dst), folded, nil
}

// lastIndex returns the index of the last of buf's n entries, or -1
// when it has none.
func lastIndex(buf []byte, n int) int {
	if n == 0 {
		return -1
	}
	return int(binary.LittleEndian.Uint32(buf[sparseHeaderSize+(n-1)*sparseEntrySize:]))
}

// reserve sizes the scratch to hold coordinate i. The appended slots
// and bitmap words are zero.
func (s *FoldScratch) reserve(i int) {
	if n := i + 1 - len(s.sum); n > 0 {
		s.sum = append(s.sum, make([]float64, n)...)
		s.touched = append(s.touched, make([]uint64, (len(s.sum)+63)/64-len(s.touched))...)
	}
}

// add sums buf's n entries into the scratch and marks their
// coordinates touched.
func (s *FoldScratch) add(buf []byte, n int) {
	off := sparseHeaderSize
	for k := 0; k < n; k++ {
		s.Add(binary.LittleEndian.Uint32(buf[off:]), math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:])))
		off += sparseEntrySize
	}
}

// Add sums val into coordinate i and marks it touched, growing the
// scratch when i lies past it: at least doubling it, so growth stays
// amortised linear whatever order the indices come in. Per coordinate,
// the emitted sum is exactly what Vector.Add would hold after the same
// calls in the same order (see FoldEncoded for why the zero rules
// agree). Add is small enough to inline into the callers' loops, which
// is most of its speed; keep it so.
func (s *FoldScratch) Add(i uint32, val float64) {
	if int(i) >= len(s.sum) {
		s.reserve(max(int(i), min(2*len(s.sum), math.MaxUint32)))
	}
	s.sum[i] += val
	s.touched[i>>6] |= 1 << (i & 63)
}

// AddRow sums vals[k] into coordinate base+k for every k, in that
// order, and marks the coordinates touched: per coordinate the same sum
// as one Add per entry, but with one growth check for the row and one
// bitmap write per word it spans, since per-entry writes of one word
// would chain through memory.
func (s *FoldScratch) AddRow(base uint32, vals []float64) {
	if len(vals) == 0 {
		return
	}
	lo, hi := int(base), int(base)+len(vals)-1
	if hi >= len(s.sum) {
		s.reserve(max(hi, min(2*len(s.sum), math.MaxUint32)))
	}
	sum := s.sum[lo : hi+1]
	for k, x := range vals {
		sum[k] += x
	}
	first, last := lo>>6, hi>>6
	if first == last {
		s.touched[first] |= ^uint64(0) << (lo & 63) & (^uint64(0) >> (63 - hi&63))
		return
	}
	s.touched[first] |= ^uint64(0) << (lo & 63)
	for w := first + 1; w < last; w++ {
		s.touched[w] = ^uint64(0)
	}
	s.touched[last] |= ^uint64(0) >> (63 - hi&63)
}

// EmitTo replaces v's contents with a run of the scratch's non-zero
// touched sums, in ascending coordinate order, and zeroes every touched
// slot and bit on the way. When finish is non-nil, each non-zero sum
// is replaced by finish(i, sum) before it is stored, and an exact zero
// result is dropped; finish must not use s or v. v's entry arrays are
// reused when large enough.
func (s *FoldScratch) EmitTo(v *Vector, finish func(i uint32, sum float64) float64) {
	distinct := 0
	for _, w := range s.touched {
		distinct += bits.OnesCount64(w)
	}
	if cap(v.idx) < distinct || cap(v.val) < distinct {
		// Headroom, so that a gradient whose width creeps up over the
		// first steps reallocates a logarithmic number of times.
		v.idx = make([]uint32, 0, distinct+distinct/4)
		v.val = make([]float64, 0, distinct+distinct/4)
	}
	idx, val := v.idx[:distinct], v.val[:distinct]
	n := 0
	for wi, w := range s.touched {
		if w == 0 {
			continue
		}
		s.touched[wi] = 0
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			x := s.sum[i]
			s.sum[i] = 0
			if x == 0 {
				continue
			}
			if finish != nil {
				if x = finish(uint32(i), x); x == 0 {
					continue
				}
			}
			idx[n], val[n] = uint32(i), x
			n++
		}
	}
	v.idx, v.val = idx[:n], val[:n]
}

// emit appends the encoding of the scratch's non-zero touched slots to
// dst in ascending order, zeroing every touched slot and bit on the
// way.
func (s *FoldScratch) emit(dst []byte) []byte {
	distinct := 0
	for _, w := range s.touched {
		distinct += bits.OnesCount64(w)
	}
	dst = slices.Grow(dst, sparseHeaderSize+distinct*sparseEntrySize)
	start := len(dst)
	off := start + sparseHeaderSize
	buf := dst[:cap(dst)]
	count := 0
	for wi, w := range s.touched {
		if w == 0 {
			continue
		}
		s.touched[wi] = 0
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			val := s.sum[i]
			s.sum[i] = 0
			if val == 0 {
				continue
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(i))
			binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(val))
			off += sparseEntrySize
			count++
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(count))
	return buf[:off]
}
