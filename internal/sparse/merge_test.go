package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// rawEncode writes the wire layout for arbitrary entries, including the
// unsorted and duplicate indices EncodeTo never produces.
func rawEncode(idx []uint32, vals []float64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(idx)))
	for k, i := range idx {
		buf = binary.LittleEndian.AppendUint32(buf, i)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vals[k]))
	}
	return buf
}

func TestMergedRunMatchesAddEncoded(t *testing.T) {
	// One chunk, several, and a dim on a chunk edge; index spans up to
	// the full uint32. Payloads ascend, so coordinates collide across
	// payloads but never within one: walking the merged run must give
	// every source the bits a loop of AddEncoded over the other payloads
	// gives. One payload in eight is disordered below dim, and the run
	// must refuse the window.
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{300, 3<<chunkBits + 5, 4 << chunkBits} {
		for _, span := range []uint32{2, uint32(dim), 1 << 15, 1 << 27, math.MaxUint32} {
			for trial := 0; trial < 20; trial++ {
				bufs := make([][]byte, 1+rng.Intn(9))
				srcs := make([]uint32, len(bufs))
				ordered := true
				for k := range bufs {
					set := map[uint32]bool{}
					for e := rng.Intn(40 + dim/50); e > 0; e-- {
						i := uint32(rng.Intn(dim + 10))
						if rng.Intn(4) == 0 {
							i = uint32(rng.Int63n(int64(span) + 1))
						}
						set[i] = true
					}
					idx := make([]uint32, 0, len(set))
					for i := range set {
						idx = append(idx, i)
					}
					slices.Sort(idx)
					if len(idx) > 1 && int(idx[1]) < dim && rng.Intn(8) == 0 {
						idx[0], idx[1] = idx[1], idx[0]
						ordered = false
					}
					vals := make([]float64, len(idx))
					for e := range vals {
						vals[e] = rng.NormFloat64()
						if rng.Intn(8) == 0 {
							vals[e] = math.Copysign(0, -1)
						}
					}
					bufs[k], srcs[k] = rawEncode(idx, vals), uint32(rng.Intn(4))
				}
				if !ordered {
					if new(MergedRun).Reset(dim, srcs, bufs) {
						t.Fatalf("dim %d: a disordered payload was accepted", dim)
					}
					continue
				}
				checkMergedRun(t, rng, dim, bufs, srcs)
			}
		}
	}

	// The four-lane walk's edges. Each payload is one source's, so
	// every source's own entries are skipped somewhere in every lane.
	payloads := func(rows ...[]uint32) ([][]byte, []uint32) {
		bufs, srcs := make([][]byte, len(rows)), make([]uint32, len(rows))
		for k, idx := range rows {
			vals := make([]float64, len(idx))
			for e := range vals {
				vals[e] = rng.NormFloat64()
			}
			bufs[k], srcs[k] = rawEncode(idx, vals), uint32(k%5)
		}
		return bufs, srcs
	}
	const dim = 300
	t.Run("shorter than four", func(t *testing.T) {
		for n := 0; n < 4; n++ {
			rows := make([][]uint32, n)
			for k := range rows {
				rows[k] = []uint32{uint32(7 * k)}
			}
			bufs, srcs := payloads(rows...)
			checkMergedRun(t, rng, dim, bufs, srcs)
			bufs, srcs = payloads(append([][]uint32{{}}, rows...)...) // all n entries from one source
			checkMergedRun(t, rng, dim, bufs, srcs)
		}
	})
	t.Run("one coordinate in every source", func(t *testing.T) {
		rows := make([][]uint32, 12)
		for k := range rows {
			rows[k] = []uint32{5, 150}
		}
		rows[3] = []uint32{150}
		rows[7] = []uint32{1, 2, 5, 150, 299}
		bufs, srcs := payloads(rows...)
		checkMergedRun(t, rng, dim, bufs, srcs)
	})
	t.Run("chains straddle every quarter", func(t *testing.T) {
		// Nine sources hold coordinates 10, 20, …, 90 each: 81 entries in
		// chains of nine, whose quarter points 20, 40 and 60 fall inside
		// the chains of 30, 50 and 70.
		rows := make([][]uint32, 9)
		for k := range rows {
			for c := uint32(10); c <= 90; c += 10 {
				rows[k] = append(rows[k], c)
			}
		}
		bufs, srcs := payloads(rows...)
		var probe MergedRun
		probe.Reset(dim, srcs, bufs)
		probe.Build()
		for q := 1; q < 4; q++ {
			if at := q * len(probe.ents) / 4; probe.ents[at-1].idx != probe.ents[at].idx {
				t.Fatalf("quarter point %d does not split a chain: the case lost its point", at)
			}
		}
		checkMergedRun(t, rng, dim, bufs, srcs)
	})
	t.Run("indices past the replica", func(t *testing.T) {
		// The dim cut falls in the first, second, third and last chunk.
		const dim = 3<<chunkBits + 100
		for _, inRange := range []int{2, 9, 17, 30} {
			rows := make([][]uint32, 8)
			for k := range rows {
				for e := 0; e < 4; e++ {
					c := uint32(dim + 5*e + k) // past every replica
					if k*4+e < inRange {
						c = uint32(e<<chunkBits + 10*e + k)
					}
					rows[k] = append(rows[k], c)
				}
				slices.Sort(rows[k])
			}
			bufs, srcs := payloads(rows...)
			checkMergedRun(t, rng, dim, bufs, srcs)
		}
	})
}

// checkMergedRun merges bufs (tagged with srcs) over dim coordinates,
// checks that no lane cut splits a coordinate's chain, then for every source
// and one more, walks the run into a random replica of dim coordinates
// and compares it bit for bit with a loop of AddEncoded over the other
// payloads in order.
func checkMergedRun(t *testing.T, rng *rand.Rand, dim int, bufs [][]byte, srcs []uint32) {
	t.Helper()
	r := new(MergedRun)
	if !r.Reset(dim, srcs, bufs) {
		t.Fatal("Reset refused ascending payloads")
	}
	r.Build()
	for k, c := range r.cut {
		if c < 0 || c > len(r.ents) || k > 0 && c < r.cut[k-1] {
			t.Fatalf("lane cuts %v over %d entries", r.cut, len(r.ents))
		}
		if c > 0 && c < len(r.ents) && r.ents[c-1].idx == r.ents[c].idx {
			t.Fatalf("lane cut %d of %v splits coordinate %d's chain", c, r.cut, r.ents[c].idx)
		}
	}
	for own := uint32(0); own < 6; own++ {
		base := make(Dense, dim)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		want := append(Dense(nil), base...)
		for k, buf := range bufs {
			if srcs[k] != own {
				if _, err := AddEncoded(want, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.AddExcept(base, own)
		for i := range want {
			if math.Float64bits(base[i]) != math.Float64bits(want[i]) {
				t.Fatalf("own %d coord %d: run %x, AddEncoded %x (lane cuts %v of %d entries)",
					own, i, math.Float64bits(base[i]), math.Float64bits(want[i]), r.cut, len(r.ents))
			}
		}
	}
}

func TestMergedRunRejectsMalformed(t *testing.T) {
	one := rawEncode([]uint32{1}, []float64{1})
	for name, buf := range map[string][]byte{
		"short":     {1, 0},
		"truncated": one[:10],
		"repeated":  rawEncode([]uint32{1, 1}, []float64{1, 2}),
		"descends":  rawEncode([]uint32{4, 3}, []float64{1, 2}),
		// AddEncoded would add 7 and skip 12; the run must not serve
		// the window and drop 7 with the indices past dim.
		"descends past dim": rawEncode([]uint32{5, 12, 7}, []float64{1, 2, 3}),
	} {
		var r MergedRun
		if r.Reset(10, []uint32{0, 1}, [][]byte{one, buf}) {
			t.Fatalf("%s payload accepted", name)
		}
		r.Build() // nothing to build: returns at once
	}
}

func TestMergedRunConcurrentBuild(t *testing.T) {
	// Goroutines that arrive while chunks are being built claim the rest
	// and wait for the others; each walks a whole run. The race detector
	// checks the claim and the wait.
	const p, dim = 16, 9<<chunkBits + 7
	bufs, srcs := zipfPayloads(rand.New(rand.NewSource(4)), p, dim, 3000)
	want := make([]Dense, p)
	for own := range want {
		want[own] = make(Dense, dim)
		for k, buf := range bufs {
			if k != own {
				AddEncoded(want[own], buf)
			}
		}
	}
	var r MergedRun
	for round := 0; round < 3; round++ {
		if !r.Reset(dim, srcs, bufs) {
			t.Fatal("Reset refused ascending payloads")
		}
		var wg sync.WaitGroup
		for own := range want {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d := make(Dense, dim)
				r.Build()
				r.AddExcept(d, uint32(own))
				for i := range d {
					if math.Float64bits(d[i]) != math.Float64bits(want[own][i]) {
						t.Errorf("round %d own %d coord %d differs", round, own, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestMergedRunBuildWaitsForClaimedChunks(t *testing.T) {
	// A caller that finds every chunk claimed blocks until the last one
	// lands, and then sees the whole run.
	const p, dim = 4, 3 << chunkBits
	bufs, srcs := zipfPayloads(rand.New(rand.NewSource(8)), p, dim, 500)
	var r MergedRun
	if !r.Reset(dim, srcs, bufs) {
		t.Fatal("Reset refused ascending payloads")
	}
	r.next.Add(1) // chunk 0, claimed by a builder that has not finished
	whole := make(chan struct{})
	go func() { r.Build(); close(whole) }()
	select {
	case <-whole:
		t.Fatal("Build returned before the claimed chunk landed")
	case <-time.After(20 * time.Millisecond):
	}
	r.buildChunk(0)
	<-whole
	want := make(Dense, dim)
	for _, buf := range bufs[1:] {
		AddEncoded(want, buf)
	}
	d := make(Dense, dim)
	r.AddExcept(d, 0)
	if !slices.Equal(d, want) {
		t.Fatal("the run built by two callers differs from AddEncoded")
	}
}

func TestMergedRunSecondWindowDoesNotAllocate(t *testing.T) {
	// A run reused for a window no larger than one it has held readies,
	// builds and walks it without allocating.
	const p, dim = 24, 20 << chunkBits
	rng := rand.New(rand.NewSource(6))
	a, srcs := zipfPayloads(rng, p, dim, 900)
	b, _ := zipfPayloads(rng, p, dim, 900)
	var r MergedRun
	d := make(Dense, dim)
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		bufs := a
		if n++; n%2 == 0 {
			bufs = b
		}
		if !r.Reset(dim, srcs, bufs) {
			t.Fatal("Reset refused ascending payloads")
		}
		r.Build()
		r.AddExcept(d, 0)
	})
	if allocs != 0 {
		t.Fatalf("a second window allocates %.1f per build", allocs)
	}
}

// zipfPayloads encodes p Zipf-skewed updates of nnz coordinates over
// dim, each its own source.
func zipfPayloads(rng *rand.Rand, p, dim, nnz int) ([][]byte, []uint32) {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(dim-1))
	bufs, srcs := make([][]byte, p), make([]uint32, p)
	for w := range bufs {
		v := New()
		for v.Len() < nnz {
			v.Set(uint32(zipf.Uint64()), rng.NormFloat64()*1e-3)
		}
		bufs[w], srcs[w] = v.EncodeTo(nil), uint32(w)
	}
	return bufs, srcs
}

// BenchmarkMergedRunAddExcept walks one replica's share of a merged
// pull window at the shape of lr-bsp-wide: P = 64 payloads of 939
// Zipf-skewed coordinates over 100 014, about 60 k entries.
func BenchmarkMergedRunAddExcept(b *testing.B) {
	const p, dim, nnz = 64, 100_014, 939
	bufs, srcs := zipfPayloads(rand.New(rand.NewSource(1)), p, dim, nnz)
	var r MergedRun
	r.Reset(dim, srcs, bufs)
	r.Build()
	d := make(Dense, dim)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r.AddExcept(d, uint32(n%p))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(r.ents)), "ns/entry")
}

// BenchmarkMergedRunBuild readies and builds that window on one
// goroutine.
func BenchmarkMergedRunBuild(b *testing.B) {
	const p, dim, nnz = 64, 100_014, 939
	bufs, srcs := zipfPayloads(rand.New(rand.NewSource(1)), p, dim, nnz)
	var r MergedRun
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r.Reset(dim, srcs, bufs)
		r.Build()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(r.ents)), "ns/entry")
}
