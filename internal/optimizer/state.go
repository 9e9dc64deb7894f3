package optimizer

import "slices"

// cover returns the dense state s grown, zero-filled, to cover every
// index of idx, which is ascending, so its last entry sets the width. A
// regrowth adds 25 % headroom, so state whose touched range widens over
// the first steps reallocates a logarithmic number of times.
func cover[T any](s []T, idx []uint32) []T {
	if len(idx) == 0 {
		return s
	}
	n := int(idx[len(idx)-1]) + 1
	if n <= len(s) {
		return s
	}
	grown := make([]T, n+n/4)
	copy(grown, s)
	return grown
}

// withIndices returns an update's empty entry arrays (idx, val) holding
// a copy of the gradient's indices gi and room for as many values; their
// capacity carries over from step to step. A step writes val[k] for gi[k].
func withIndices(idx []uint32, val []float64, gi []uint32) ([]uint32, []float64) {
	return append(idx, gi...), slices.Grow(val, len(gi))[:len(gi)]
}

// dropZeros removes the entries whose value is an exact zero, zeros of
// them, keeping the rest in order: the update stays a zero-free run.
func dropZeros(idx []uint32, val []float64, zeros int) ([]uint32, []float64) {
	if zeros == 0 {
		return idx, val
	}
	n := 0
	for k, x := range val {
		if x != 0 {
			idx[n], val[n] = idx[k], x
			n++
		}
	}
	return idx[:n], val[:n]
}
