package dataset

import "math"

// NormalizeInPlace min-max scales the numeric features (coordinates
// [0, numericFeatures)) of an in-memory dataset to [0, 1], before
// staging: each becomes (x−min)/span, an absent x counting as 0, and 0
// when the feature's span is not positive; zeros are dropped and every
// other coordinate is kept. Each vector is rewritten once, as an
// ascending run. The paper prepares Criteo with two chained PyWren-IBM
// map-reduce jobs over the object store (§3.2); that preprocessing's
// time and cost are not modelled (DESIGN.md §5) — the arithmetic, and
// so every staged sample, is the same.
func NormalizeInPlace(ds *Dataset, numericFeatures int) {
	if numericFeatures <= 0 {
		return
	}
	mins := make([]float64, numericFeatures)
	maxs := make([]float64, numericFeatures)
	for f := range mins {
		mins[f] = math.Inf(1)
		maxs[f] = math.Inf(-1)
	}
	x := make([]float64, numericFeatures)
	for _, s := range ds.Samples {
		s.Features.Entries(func(idx []uint32, val []float64) {
			numericOf(x, idx, val)
		})
		for f, v := range x {
			if v < mins[f] {
				mins[f] = v
			}
			if v > maxs[f] {
				maxs[f] = v
			}
		}
	}
	var idx []uint32
	var val []float64
	for _, s := range ds.Samples {
		idx, val = idx[:0], val[:0]
		s.Features.Entries(func(in []uint32, inVal []float64) {
			rest := numericOf(x, in, inVal)
			for f, v := range x {
				span := maxs[f] - mins[f]
				if span <= 0 {
					continue
				}
				if v = (v - mins[f]) / span; v != 0 {
					idx = append(idx, uint32(f))
					val = append(val, v)
				}
			}
			idx = append(idx, in[rest:]...)
			val = append(val, inVal[rest:]...)
		})
		s.Features.WriteRun(func(dst []uint32, dstVal []float64) ([]uint32, []float64) {
			return append(dst, idx...), append(dstVal, val...)
		})
	}
}

// numericOf reads the numeric block of an ascending run into x, 0 where
// a coordinate is absent, and returns the position of the first entry
// past it.
func numericOf(x []float64, idx []uint32, val []float64) int {
	k := 0
	for f := range x {
		x[f] = 0
		if k < len(idx) && idx[k] == uint32(f) {
			x[f] = val[k]
			k++
		}
	}
	return k
}
