package fit

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a numerically singular linear system.
var ErrSingular = errors.New("fit: singular system")

// solveLinear solves the square system Mx = y by Gaussian elimination
// with partial pivoting, mutating copies of its inputs.
func solveLinear(m [][]float64, y []float64) ([]float64, error) {
	n := len(y)
	// Copy.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		copy(a[i], m[i])
	}
	b := make([]float64, n)
	copy(b, y)

	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-14 {
			return nil, fmt.Errorf("column %d: %w", col, ErrSingular)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, nil
}
