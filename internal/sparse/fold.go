package sparse

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// FoldScratch is the reusable state of FoldEncoded: a dense float64
// sum per coordinate and a bitmap of the coordinates a fold touched.
// Both grow to a high-water mark of 8 bytes plus 1 bit per coordinate
// up to the largest index seen, and emission zeroes every touched slot,
// so a reused scratch never needs clearing. The zero value is ready for
// use. Memory follows the largest index, not the entry count, so the
// kernel suits runs over a bounded coordinate space (a model's
// parameters); it is not safe for concurrent use.
type FoldScratch struct {
	sum     []float64
	touched []uint64
}

// FoldEncoded appends to dst the encoding of acc plus every run in
// runs (all in the Encode layout) and returns the extended slice with
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
	// encoding Encode produces.
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

// reserve sizes the scratch to hold coordinate i. Slots past the
// current length were never written (emission re-zeroes touched ones),
// so extending within capacity needs no clearing.
func (s *FoldScratch) reserve(i int) {
	if i < len(s.sum) {
		return
	}
	if i < cap(s.sum) {
		s.sum = s.sum[:i+1]
	} else {
		sum := make([]float64, i+1)
		copy(sum, s.sum)
		s.sum = sum
	}
	if words := i>>6 + 1; words > len(s.touched) {
		touched := make([]uint64, words)
		copy(touched, s.touched)
		s.touched = touched
	}
}

// add sums buf's n entries into the scratch and marks their
// coordinates touched.
func (s *FoldScratch) add(buf []byte, n int) {
	off := sparseHeaderSize
	for k := 0; k < n; k++ {
		i := binary.LittleEndian.Uint32(buf[off:])
		val := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		if int(i) >= len(s.sum) {
			// Only an unsorted input reaches past the up-front size;
			// doubling keeps its growth amortised linear.
			s.reserve(max(int(i), min(2*len(s.sum), math.MaxUint32)))
		}
		s.sum[i] += val
		s.touched[i>>6] |= 1 << (i & 63)
		off += sparseEntrySize
	}
}

// emit appends the encoding of the scratch's non-zero touched slots to
// dst in ascending order, zeroing every touched slot and bit on the
// way.
func (s *FoldScratch) emit(dst []byte) []byte {
	distinct := 0
	for _, w := range s.touched {
		distinct += bits.OnesCount64(w)
	}
	dst = ensureCap(dst, sparseHeaderSize+distinct*sparseEntrySize)
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
