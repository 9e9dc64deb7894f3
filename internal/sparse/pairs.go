package sparse

import "sync"

// Sorted-pair extraction: the shared path behind ForEachSorted, Dot,
// the norms and Encode. A vector's entries are already two compact
// arrays, so extraction copies them into a reusable scratch and
// radix-sorts the pairs in one go, moving values alongside their
// indices: a sorted pass costs zero allocations and zero table probes in
// the steady state.
//
// The scratch (including the radix sort's swap buffers) is pooled
// rather than hung off the Vector: mini-batch feature vectors are shared
// read-only between concurrently running workers, so per-vector mutable
// scratch would race where per-goroutine pooled scratch cannot.

// pairScratch holds the extraction buffers plus the radix swap buffers.
type pairScratch struct {
	idx, idxSwap []uint32
	val, valSwap []float64
}

var pairPool = sync.Pool{New: func() any { return new(pairScratch) }}

// extract fills the scratch with v's pairs sorted by ascending index and
// returns the index/value slices (views into the scratch, valid until
// the scratch is released).
func (ps *pairScratch) extract(v *Vector) ([]uint32, []float64) {
	n := len(v.idx)
	if cap(ps.idx) < n {
		ps.idx = make([]uint32, n)
		ps.val = make([]float64, n)
	}
	idx, val := ps.idx[:n], ps.val[:n]
	copy(idx, v.idx)
	copy(val, v.val)
	ps.sortPairs(idx, val)
	return idx, val
}

// sortPairs sorts idx ascending, moving val along. Small inputs use
// insertion sort; larger ones an LSD byte-wise radix sort over the
// scratch's reusable swap buffers, skipping passes whose byte is
// constant zero.
func (ps *pairScratch) sortPairs(idx []uint32, val []float64) {
	n := len(idx)
	if n < 64 {
		for i := 1; i < n; i++ {
			x, y := idx[i], val[i]
			j := i - 1
			for j >= 0 && idx[j] > x {
				idx[j+1], val[j+1] = idx[j], val[j]
				j--
			}
			idx[j+1], val[j+1] = x, y
		}
		return
	}
	var max uint32
	for _, x := range idx {
		if x > max {
			max = x
		}
	}
	if cap(ps.idxSwap) < n {
		ps.idxSwap = make([]uint32, n)
		ps.valSwap = make([]float64, n)
	}
	srcI, dstI := idx, ps.idxSwap[:n]
	srcV, dstV := val, ps.valSwap[:n]
	for shift := uint(0); shift < 32 && max>>shift > 0; shift += 8 {
		var counts [257]int
		for _, x := range srcI {
			counts[((x>>shift)&0xFF)+1]++
		}
		for i := 1; i < 257; i++ {
			counts[i] += counts[i-1]
		}
		for k, x := range srcI {
			b := (x >> shift) & 0xFF
			dstI[counts[b]] = x
			dstV[counts[b]] = srcV[k]
			counts[b]++
		}
		srcI, dstI = dstI, srcI
		srcV, dstV = dstV, srcV
	}
	if &srcI[0] != &idx[0] {
		copy(idx, srcI)
		copy(val, srcV)
	}
}
