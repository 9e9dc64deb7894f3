package optimizer

import "mlless/internal/sparse"

// cover returns the dense state s grown, zero-filled, to cover every
// index grad names. The width is found by one sequential scan of the
// gradient; a regrowth adds 25 % headroom, so state whose touched range
// widens over the first steps reallocates a logarithmic number of times.
func cover[T any](s []T, grad *sparse.Vector) []T {
	n := 0
	grad.ForEach(func(i uint32, _ float64) { n = max(n, int(i)+1) })
	if n <= len(s) {
		return s
	}
	grown := make([]T, n+n/4)
	copy(grown, s)
	return grown
}
