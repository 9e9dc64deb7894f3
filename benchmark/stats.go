package main

import "sort"

// dist summarises the repetitions of one measurement. With fewer than
// 21 samples no tail percentile is claimed: median, quartiles, range.
type dist struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// exact is the dist of a deterministic quantity.
func exact(v float64) dist { return dist{Median: v, Min: v, P25: v, P75: v, Max: v, N: 1} }

// summarize computes the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spread -compare sees is the spread the driver computes.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return dist{}
	case 1:
		return exact(s[0])
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return dist{Median: q(2), Min: s[0], P25: q(1), P75: q(3), Max: s[n-1], N: n}
}

// spread is the interquartile range as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	s := (d.P75 - d.P25) / d.Median
	if s < 0 {
		s = -s
	}
	return s
}
