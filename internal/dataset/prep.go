package dataset

import "math"

// scaleSample applies min-max scaling to one feature sample in place.
func scaleSample(s Sample, mins, maxs []float64) {
	for f := range mins {
		span := maxs[f] - mins[f]
		if span <= 0 {
			s.Features.Set(uint32(f), 0)
			continue
		}
		v := s.Features.Get(uint32(f))
		s.Features.Set(uint32(f), (v-mins[f])/span)
	}
}

// NormalizeInPlace min-max scales the numeric features (coordinates
// [0, numericFeatures)) of an in-memory dataset to [0, 1], before
// staging. The paper prepares Criteo with two chained PyWren-IBM
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
	for _, s := range ds.Samples {
		for f := 0; f < numericFeatures; f++ {
			v := s.Features.Get(uint32(f))
			if v < mins[f] {
				mins[f] = v
			}
			if v > maxs[f] {
				maxs[f] = v
			}
		}
	}
	for _, s := range ds.Samples {
		scaleSample(s, mins, maxs)
	}
}
