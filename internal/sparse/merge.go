package sparse

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// chunkBits is log2 of the coordinates one chunk of a MergedRun spans:
// a chunk's counting pass keeps 2^11 counters (8 KB) on the stack.
const chunkBits = 11

// MergedRun is a set of encoded sparse vectors merged into one run of
// (index, source, value) entries sorted by index: the shared form of a
// lock-step pull window, where every replica must add the same P
// payloads minus its own. Applying P−1 payloads one after another
// walks the dense replica P−1 times in scattered order; walking one
// sorted run visits each coordinate once, in ascending order.
//
// The run is built in chunks of 2^11 coordinates by whoever needs it.
// Reset finds, in one pass over each payload's indices, where every
// chunk's slice of that payload starts, and so where every chunk lands
// in the run; Build then claims unbuilt chunks from an atomic counter,
// fills each with one stable counting pass over its payload slices in
// payload order, and waits for the chunks other callers claimed.
//
// Bit-equality with a loop of AddEncoded rests on order alone. Chunks
// partition the coordinates, and the counting pass is stable, so the
// entries sharing an index keep the order of their payloads. A replica
// that walks the run and adds every entry not tagged with its own
// source therefore performs each coordinate's additions in the same
// sequence as AddEncoded over the same vectors in payload order, and
// float addition sees identical operands in identical order.
//
// The walk runs in four lanes: the builder of the chunk holding a
// quarter point of the run moves it forward to the next change of
// coordinate, a lane cut, and AddExcept walks the lanes interleaved,
// one entry of each per turn. Every coordinate's entries lie in one
// lane, in run order, so each coordinate still sees the same additions
// in the same sequence; but a hot coordinate's back-to-back d[i] += v
// chain, each addition waiting on the one before through memory, now
// overlaps with three independent chains.
type MergedRun struct {
	ents   []runEntry
	bufs   [][]byte
	srcs   []uint32
	chunks int
	// bounds[j*(chunks+1)+c] is payload j's first entry at or past
	// coordinate c<<chunkBits; starts[c] is chunk c's first entry in
	// the run, starts[chunks] the run's length.
	bounds, starts []int
	// cut[k] is the first entry of lane k+1.
	cut  [3]int
	next atomic.Int64
	// done counts the chunks built; landed is signalled with the last.
	mu     sync.Mutex
	done   int
	landed sync.Cond
}

type runEntry struct {
	idx, src uint32
	val      float64
}

// Reset readies the run for the payloads bufs (the EncodeTo layout; a nil
// buffer is an empty payload), tagged srcs, over the coordinates
// [0, dim): indices past dim stay out, as AddEncoded ignores them. It
// reports false, leaving nothing to build, if a payload is malformed or
// its indices do not strictly ascend. The run borrows bufs and srcs
// until the next Reset. Reset must not overlap Build or AddExcept on
// the same run.
func (r *MergedRun) Reset(dim int, srcs []uint32, bufs [][]byte) bool {
	r.chunks, r.bufs, r.srcs, r.done = 0, bufs, srcs, 0
	r.next.Store(0)
	r.landed.L = &r.mu
	chunks := (dim + 1<<chunkBits - 1) >> chunkBits
	r.bounds = grow(r.bounds, len(bufs)*(chunks+1))
	r.starts = grow(r.starts, chunks+1)
	clear(r.starts)
	for j, buf := range bufs {
		n := 0
		if buf != nil {
			var err error
			if n, err = encodedLen(buf, "merge encoded"); err != nil {
				return false
			}
		}
		// Every index is checked, those past dim too: one that
		// descends back below dim would be added by AddEncoded.
		b := r.bounds[j*(chunks+1) : (j+1)*(chunks+1)]
		c, below, prev := 0, 0, -1
		for k := range n {
			i := int(binary.LittleEndian.Uint32(buf[sparseHeaderSize+k*sparseEntrySize:]))
			if i <= prev {
				return false
			}
			prev = i
			if i < dim {
				for ; c <= i>>chunkBits; c++ {
					b[c] = k
				}
				below = k + 1
			}
		}
		for ; c <= chunks; c++ {
			b[c] = below
		}
		for c, at := range b {
			r.starts[c] += at
		}
	}
	total := r.starts[chunks]
	if total > cap(r.ents) {
		r.ents = make([]runEntry, max(total, 2*cap(r.ents)))
	}
	r.ents, r.cut = r.ents[:total], [3]int{}
	r.chunks = chunks
	return true
}

// grow returns s resized to n, reallocated only when n outgrows it.
func grow(s []int, n int) []int {
	if n > cap(s) {
		return make([]int, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// Build builds chunks until none is left unclaimed, then waits until
// every chunk has landed. Any number of goroutines may call it at once
// after Reset; each returns once the run is whole.
func (r *MergedRun) Build() {
	for {
		c := int(r.next.Add(1) - 1)
		if c >= r.chunks {
			break
		}
		r.buildChunk(c)
	}
	r.mu.Lock()
	for r.done < r.chunks {
		r.landed.Wait()
	}
	r.mu.Unlock()
}

// buildChunk counts chunk c's entries per coordinate, scatters them
// into the run's chunk c, payload by payload, sets the lane cuts that
// fall in it and lands it.
func (r *MergedRun) buildChunk(c int) {
	var at [1 << chunkBits]int32
	base := uint32(c) << chunkBits
	for j := range r.bufs {
		for e := r.slice(j, c); len(e) >= sparseEntrySize; e = e[sparseEntrySize:] {
			at[binary.LittleEndian.Uint32(e)-base]++
		}
	}
	sum := int32(r.starts[c])
	for b, n := range at {
		at[b], sum = sum, sum+n
	}
	for j, src := range r.srcs {
		for e := r.slice(j, c); len(e) >= sparseEntrySize; e = e[sparseEntrySize:] {
			i := binary.LittleEndian.Uint32(e)
			p := &at[i-base]
			r.ents[*p] = runEntry{idx: i, src: src, val: math.Float64frombits(binary.LittleEndian.Uint64(e[4:]))}
			*p++
		}
	}
	lo, hi := r.starts[c], r.starts[c+1]
	for k := range r.cut {
		if q := (k + 1) * len(r.ents) / 4; lo <= q && q < hi {
			for q > lo && q < hi && r.ents[q].idx == r.ents[q-1].idx {
				q++
			}
			r.cut[k] = q
		}
	}
	r.mu.Lock()
	if r.done++; r.done == r.chunks {
		r.landed.Broadcast()
	}
	r.mu.Unlock()
}

// slice returns payload j's entries in chunk c.
func (r *MergedRun) slice(j, c int) []byte {
	b := r.bounds[j*(r.chunks+1)+c:]
	if b[0] == b[1] {
		return nil // also a nil payload's
	}
	return r.bufs[j][sparseHeaderSize+b[0]*sparseEntrySize : sparseHeaderSize+b[1]*sparseEntrySize]
}

// AddExcept adds every entry of the built run whose source is not own
// to d, in run order per coordinate. d must span the run's dim
// coordinates. Call it only after Build.
func (r *MergedRun) AddExcept(d Dense, own uint32) {
	c0, c1, c2 := r.cut[0], r.cut[1], r.cut[2]
	l0, l1, l2, l3 := r.ents[:c0], r.ents[c0:c1], r.ents[c1:c2], r.ents[c2:]
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
