package sparse

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
)

// MergedRun is a set of encoded sparse vectors merged into one run of
// (index, source, value) entries sorted by index: the shared form of a
// lock-step pull window, where every replica must add the same P
// payloads minus its own. Applying P−1 payloads one after another
// walks the dense replica P−1 times in scattered order; walking one
// sorted run visits each coordinate once, in ascending order.
//
// Bit-equality with a loop of AddEncoded rests on order alone. Sort is
// stable, so entries sharing an index keep the order they were
// appended in: vector by vector, and encoding order within one. A
// replica that walks the run and adds every entry not tagged with its
// own source therefore performs each coordinate's additions in the
// same sequence as AddEncoded over the same vectors in append order,
// and float addition sees identical operands in identical order.
//
// The walk runs in four lanes: Sort splits the sorted run at three
// coordinate boundaries into quarters, and AddExcept walks the quarters
// interleaved, one entry of each per turn. Every coordinate's entries
// lie in one lane, in run order, so each coordinate still sees the same
// additions in the same sequence; but a hot coordinate's back-to-back
// d[i] += v chain, each addition waiting on the one before through
// memory, now overlaps with three independent chains.
type MergedRun struct {
	ents, swap []runEntry
	max        uint32
	// cut[k] is the first entry of lane k+1: a quarter point moved
	// forward to the next change of coordinate.
	cut [3]int
}

type runEntry struct {
	idx, src uint32
	val      float64
}

// Reset empties the run and reserves room for the entries of bufs, the
// payloads about to be appended, with a quarter's headroom: a run
// reused window after window regrows only when a window outgrows every
// earlier one by that margin, never entry by entry.
func (r *MergedRun) Reset(bufs [][]byte) {
	n := 0
	for _, buf := range bufs {
		if len(buf) >= sparseHeaderSize {
			n += min(int(binary.LittleEndian.Uint32(buf)), (len(buf)-sparseHeaderSize)/sparseEntrySize)
		}
	}
	if cap(r.ents) < n {
		r.ents = make([]runEntry, 0, n+n/4)
	}
	r.ents = r.ents[:0]
	r.max = 0
}

// Append decodes buf (the Encode layout) onto the run, tagging every
// entry with src, and returns the entry count. Exact zeros and indices
// beyond any replica stay in: the walk decides what it adds.
func (r *MergedRun) Append(src uint32, buf []byte) (int, error) {
	n, err := encodedLen(buf, "merge encoded")
	if err != nil {
		return 0, err
	}
	off := sparseHeaderSize
	for k := 0; k < n; k++ {
		i := binary.LittleEndian.Uint32(buf[off:])
		r.ents = append(r.ents, runEntry{idx: i, src: src,
			val: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))})
		r.max = max(r.max, i)
		off += sparseEntrySize
	}
	return n, nil
}

// Sort orders the run by index, stably: an LSD radix sort over the
// run's reusable swap buffer, with as few passes of up to 11 bits as
// the largest index needs (two for a 100k-coordinate model).
func (r *MergedRun) Sort() {
	r.radixSort()
	prev := 0
	for k := range r.cut {
		c := max(prev, (k+1)*len(r.ents)/4)
		for c > 0 && c < len(r.ents) && r.ents[c].idx == r.ents[c-1].idx {
			c++
		}
		r.cut[k], prev = c, c
	}
}

// radixSort is Sort's ordering step.
func (r *MergedRun) radixSort() {
	width := bits.Len32(r.max)
	if width == 0 || len(r.ents) < 2 {
		return
	}
	passes := (width + 10) / 11
	digit := uint((width + passes - 1) / passes)
	mask := uint32(1)<<digit - 1
	if cap(r.swap) < len(r.ents) {
		r.swap = make([]runEntry, cap(r.ents))
	}
	src, dst := r.ents, r.swap[:len(r.ents)]
	var counts [1 << 11]int
	for shift := uint(0); shift < uint(width); shift += digit {
		clear(counts[:mask+1])
		for _, e := range src {
			counts[e.idx>>shift&mask]++
		}
		sum := 0
		for b, c := range counts[:mask+1] {
			counts[b] = sum
			sum += c
		}
		for _, e := range src {
			b := e.idx >> shift & mask
			dst[counts[b]] = e
			counts[b]++
		}
		src, dst = dst, src
	}
	r.ents, r.swap = src, dst
}

// AddExcept adds every entry of the sorted run whose source is not own
// to d, in run order per coordinate, and ignores indices outside d (as
// AddEncoded does). Call it only after Sort.
func (r *MergedRun) AddExcept(d Dense, own uint32) {
	end := sort.Search(len(r.ents), func(k int) bool { return int(r.ents[k].idx) >= len(d) })
	c0, c1, c2 := min(r.cut[0], end), min(r.cut[1], end), min(r.cut[2], end)
	l0, l1, l2, l3 := r.ents[:c0], r.ents[c0:c1], r.ents[c1:c2], r.ents[c2:end]
	n := min(len(l0), len(l1), len(l2), len(l3))
	tails := [...][]runEntry{l0[n:], l1[n:], l2[n:], l3[n:]}
	l0, l1, l2, l3 = l0[:n], l1[:n], l2[:n], l3[:n]
	for k, e := range l0 {
		if e.src != own {
			d[e.idx] += e.val
		}
		if e := l1[k]; e.src != own {
			d[e.idx] += e.val
		}
		if e := l2[k]; e.src != own {
			d[e.idx] += e.val
		}
		if e := l3[k]; e.src != own {
			d[e.idx] += e.val
		}
	}
	for _, lane := range tails {
		for _, e := range lane {
			if e.src != own {
				d[e.idx] += e.val
			}
		}
	}
}
