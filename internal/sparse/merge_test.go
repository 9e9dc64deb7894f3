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
			var r MergedRun
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
			r.Reset(bufs)
			for k, buf := range bufs {
				if n, err := r.Append(srcs[k], buf); err != nil || n != (len(buf)-4)/12 {
					t.Fatalf("Append = %d, %v", n, err)
				}
			}
			r.Sort()
			for own := uint32(0); own < 5; own++ {
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
						t.Fatalf("span %d own %d coord %d: run %x, AddEncoded %x",
							span, own, i, math.Float64bits(base[i]), math.Float64bits(want[i]))
					}
				}
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
