package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// rawEncode writes the wire layout for arbitrary entries, including the
// unsorted and duplicate indices Encode never produces.
func rawEncode(idx []uint32, vals []float64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(idx)))
	for k, i := range idx {
		buf = binary.LittleEndian.AppendUint32(buf, i)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vals[k]))
	}
	return buf
}

func TestMergedRunMatchesAddEncoded(t *testing.T) {
	// Index spans from one radix pass up to three (full uint32), payloads
	// in any order with repeats: walking the merged run must give every
	// source the bits a loop of AddEncoded over the other payloads gives.
	rng := rand.New(rand.NewSource(3))
	const dim = 300
	for _, span := range []uint32{2, dim, 1 << 15, 1 << 27, math.MaxUint32} {
		for trial := 0; trial < 20; trial++ {
			bufs := make([][]byte, 1+rng.Intn(9))
			srcs := make([]uint32, len(bufs))
			for k := range bufs {
				n := rng.Intn(40)
				idx, vals := make([]uint32, n), make([]float64, n)
				for e := range idx {
					// Mostly in range, so coordinates collide across payloads.
					idx[e] = uint32(rng.Intn(dim + 10))
					if rng.Intn(4) == 0 {
						idx[e] = uint32(rng.Int63n(int64(span) + 1))
					}
					vals[e] = rng.NormFloat64()
					if rng.Intn(8) == 0 {
						vals[e] = math.Copysign(0, -1)
					}
				}
				bufs[k], srcs[k] = rawEncode(idx, vals), uint32(rng.Intn(4))
			}
			checkMergedRun(t, rng, dim, bufs, srcs)
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
		rows[7] = []uint32{1, 5, 2, 150, 299}
		bufs, srcs := payloads(rows...)
		checkMergedRun(t, rng, dim, bufs, srcs)
	})
	t.Run("chains straddle every quarter", func(t *testing.T) {
		// Nine sources hold coordinates 10, 20, …, 90 once each and
		// 15, 45 and 75 twice each, shuffled: 135 entries whose quarter
		// points 33, 67 and 101 fall inside the chains of 20, 45 and 75.
		rows := make([][]uint32, 9)
		for k := range rows {
			for c := uint32(10); c <= 90; c += 10 {
				rows[k] = append(rows[k], c)
			}
			rows[k] = append(rows[k], 15, 15, 45, 45, 75, 75)
			rng.Shuffle(len(rows[k]), func(a, b int) { rows[k][a], rows[k][b] = rows[k][b], rows[k][a] })
		}
		bufs, srcs := payloads(rows...)
		var probe MergedRun
		probe.Reset(bufs)
		for k, buf := range bufs {
			if _, err := probe.Append(srcs[k], buf); err != nil {
				t.Fatal(err)
			}
		}
		probe.Sort()
		for q := 1; q < 4; q++ {
			if at := q * len(probe.ents) / 4; probe.ents[at-1].idx != probe.ents[at].idx {
				t.Fatalf("quarter point %d does not split a chain: the case lost its point", at)
			}
		}
		checkMergedRun(t, rng, dim, bufs, srcs)
	})
	t.Run("indices past the replica", func(t *testing.T) {
		// The len(d) cut falls in the first, second, third and last lane.
		for _, inRange := range []int{2, 9, 17, 30} {
			rows := make([][]uint32, 8)
			for k := range rows {
				for e := 0; e < 4; e++ {
					c := uint32(dim + 5*e + k) // past every replica
					if k*4+e < inRange {
						c = uint32(10*e + k)
					}
					rows[k] = append(rows[k], c)
				}
			}
			bufs, srcs := payloads(rows...)
			checkMergedRun(t, rng, dim, bufs, srcs)
		}
	})
}

// checkMergedRun merges bufs (tagged with srcs), checks that no lane cut
// splits a coordinate's chain, then for every source and one more, walks the run into a random replica of dim coordinates
// and compares it bit for bit with a loop of AddEncoded over the other
// payloads in order.
func checkMergedRun(t *testing.T, rng *rand.Rand, dim int, bufs [][]byte, srcs []uint32) {
	t.Helper()
	r := new(MergedRun)
	r.Reset(bufs)
	for k, buf := range bufs {
		if n, err := r.Append(srcs[k], buf); err != nil || n != (len(buf)-4)/12 {
			t.Fatalf("Append = %d, %v", n, err)
		}
	}
	r.Sort()
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
	var r MergedRun
	if _, err := r.Append(0, []byte{1, 0}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := r.Append(0, rawEncode([]uint32{1}, []float64{1})[:10]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

// BenchmarkMergedRunAddExcept walks one replica's share of a merged
// pull window at the shape of lr-bsp-wide: P = 64 payloads of 939
// Zipf-skewed coordinates over 100 014, about 60 k entries.
func BenchmarkMergedRunAddExcept(b *testing.B) {
	const p, dim, nnz = 64, 100_014, 939
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, dim-1)
	bufs := make([][]byte, p)
	for w := range bufs {
		v := New()
		for v.Len() < nnz {
			v.Set(uint32(zipf.Uint64()), rng.NormFloat64()*1e-3)
		}
		bufs[w] = v.Encode()
	}
	var r MergedRun
	r.Reset(bufs)
	for w, buf := range bufs {
		if _, err := r.Append(uint32(w), buf); err != nil {
			b.Fatal(err)
		}
	}
	r.Sort()
	d := make(Dense, dim)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r.AddExcept(d, uint32(n%p))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(r.ents)), "ns/entry")
}
