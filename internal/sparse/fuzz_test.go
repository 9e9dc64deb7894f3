package sparse

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// FuzzVectorOps decodes a byte string as a sequence of operations on two
// vectors and runs it against map references. After every operation the
// contents are compared through every read path and the one invariant
// of a Vector is checked directly: its entries strictly ascend and none
// is an exact zero.
//
// Encoding: three bytes per operation — op, key, value selector. Bit 7
// of op swaps which vector is the target. Keys are one byte, so edits
// land before, inside and after a run of a few entries. Rewrite reads
// the key byte as a mask instead: it overwrites the target with a run of
// the other vector's entries, read with Entries and written with
// WriteRun, zeroing those whose index mod 8 is a set bit and rescaling
// the rest, so a drop shortens the run. Run empties the target and Sets
// an ascending burst (appends); AddEncoded folds the other vector's
// encoding into the target through the linear merge.

var fuzzVals = [...]float64{
	0, math.Copysign(0, -1), // ±0: Set removes, Add is a no-op
	1, -1, 2, -2, 3, -3, // integers, so Adds cancel to exact zero
	0.5, -0.75, 1e-3, math.Pi,
}

var fuzzScales = [...]float64{-1, 2, 0.5, 0}

const (
	fuzzSet = iota
	fuzzAdd
	fuzzRemove
	fuzzClear
	fuzzScale
	fuzzCopyFrom
	fuzzAddVector
	fuzzBurst // Set a run of keys: forces growth
	fuzzDecodeInto
	fuzzRewrite    // WriteRun of the other vector's Entries, mapped
	fuzzRun        // Clear, then Set an ascending burst
	fuzzAddEncoded // AddEncodedSparse of the other vector's encoding
	fuzzClone
	fuzzEqual
	fuzzOps
)

type vecModel map[uint32]float64

func (m vecModel) set(k uint32, val float64) {
	if val == 0 {
		delete(m, k)
	} else {
		m[k] = val
	}
}

func (m vecModel) add(k uint32, val float64) {
	cur, ok := m[k]
	if !ok {
		m.set(k, val)
	} else if s := cur + val; s == 0 {
		delete(m, k)
	} else {
		m[k] = s
	}
}

func FuzzVectorOps(f *testing.F) {
	set := func(k byte) []byte { return []byte{fuzzSet, k, 2} }
	rm := func(k byte) []byte { return []byte{fuzzRemove, k, 0} }
	seq := func(ops ...[]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	f.Add(seq(set(1), rm(1)))                 // remove the only entry
	f.Add(seq(set(1), set(2), set(3), rm(3))) // remove the last entry
	f.Add(seq(set(1), set(2), set(3), rm(1))) // remove the first entry
	// Inserts before the first entry and between two, then a removal in
	// the middle: every edit that shifts the tail.
	f.Add(seq(set(5), set(9), set(0), set(7), rm(7)))
	f.Add(seq(set(5), set(9), set(0), set(7), rm(5), set(6)))
	f.Add(seq(set(200), set(100), set(150), set(120), rm(150), rm(200), rm(100)))
	f.Add(seq([]byte{fuzzAdd, 7, 2}, []byte{fuzzAdd, 7, 3}))                                    // exact cancellation
	f.Add(seq([]byte{fuzzBurst, 0, 200}, []byte{fuzzScale, 0, 1}, []byte{fuzzBurst, 100, 255})) // growth
	f.Add(seq([]byte{fuzzBurst, 3, 40}, []byte{fuzzCopyFrom | 0x80, 0, 0}, []byte{fuzzAddVector, 0, 0},
		[]byte{fuzzDecodeInto | 0x80, 0, 0}, []byte{fuzzClear, 0, 0}, []byte{fuzzCopyFrom, 0, 0}))
	f.Add(seq(set(1), set(2), set(3), []byte{fuzzRewrite | 0x80, 0xff, 1}))                // every entry zeroed
	f.Add(seq(set(1), set(2), set(3), []byte{fuzzRewrite | 0x80, 1 << 3, 1}))              // only the last entry zeroed
	f.Add(seq(set(1), set(9), []byte{fuzzBurst | 0x80, 2, 30}, []byte{fuzzRewrite, 0, 2})) // rewrite over a longer run
	// Runs: built, copied, cloned, rewritten with drops, decoded into,
	// merged into, then edited by Set, Add and Remove.
	f.Add(seq([]byte{fuzzRun, 5, 13}, []byte{fuzzAddEncoded, 200, 3}, []byte{fuzzCopyFrom | 0x80, 0, 0},
		[]byte{fuzzEqual, 0, 0}, []byte{fuzzRewrite, 0x55, 1}, []byte{fuzzAdd, 7, 2}))
	f.Add(seq([]byte{fuzzRun, 0, 40}, []byte{fuzzClone | 0x80, 0, 0}, []byte{fuzzRewrite | 0x80, 0x0f, 2},
		[]byte{fuzzDecodeInto, 0, 0}, []byte{fuzzRun | 0x80, 9, 7}, []byte{fuzzRemove | 0x80, 9, 0}))
	f.Add(seq([]byte{fuzzRun, 10, 9}, []byte{fuzzRun | 0x80, 3, 28}, []byte{fuzzScale | 0x80, 0, 0},
		[]byte{fuzzAddEncoded, 0, 0}, []byte{fuzzSet, 50, 0}, []byte{fuzzRun, 1, 0})) // merge cancels every shared index

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := New(), New()
		ma, mb := vecModel{}, vecModel{}
		for ; len(data) >= 3; data = data[3:] {
			op, k, sel := data[0], uint32(data[1]), data[2]
			v, m, w, mw := a, ma, b, mb
			if op&0x80 != 0 {
				v, m, w, mw = b, mb, a, ma
			}
			val := fuzzVals[int(sel)%len(fuzzVals)]
			switch op & 0x7f % fuzzOps {
			case fuzzSet:
				v.Set(k, val)
				m.set(k, val)
			case fuzzAdd:
				v.Add(k, val)
				m.add(k, val)
			case fuzzRemove:
				if got, want := v.Remove(k), m[k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Remove(%d) = %v, want %v", k, got, want)
				}
				delete(m, k)
			case fuzzClear:
				v.Clear()
				clear(m)
			case fuzzScale:
				s := fuzzScales[int(sel)%len(fuzzScales)]
				v.Scale(s)
				for i := range m {
					m[i] *= s
				}
				if s == 0 {
					clear(m)
				}
			case fuzzCopyFrom:
				v.CopyFrom(w)
				clear(m)
				for i, x := range mw {
					m[i] = x
				}
			case fuzzAddVector:
				v.AddVector(w)
				for i, x := range mw {
					m.add(i, x)
				}
			case fuzzBurst:
				for i := k; i < k+uint32(sel); i++ {
					v.Set(i, float64(i)+0.5)
					m[i] = float64(i) + 0.5
				}
			case fuzzDecodeInto:
				if err := DecodeInto(v, w.Encode()); err != nil {
					t.Fatal(err)
				}
				clear(m)
				for i, x := range mw {
					m.set(i, x) // a value scaled down to zero does not survive the wire
				}
			case fuzzRun:
				// sel picks the count (bits 0–2, plus one) and the stride
				// (bits 3–4); values cycle through fuzzVals, zeros
				// included, which Set drops.
				v.Clear()
				clear(m)
				count, stride := int(sel&7)+1, uint32(sel>>3&3)+1
				for n, i := 0, k; n < count; n, i = n+1, i+stride {
					x := fuzzVals[(int(sel)+n)%len(fuzzVals)]
					v.Set(i, x)
					m.set(i, x)
				}
			case fuzzAddEncoded:
				if _, err := AddEncodedSparse(v, w.Encode()); err != nil {
					t.Fatal(err)
				}
				for i, x := range mw {
					m.add(i, x)
				}
			case fuzzClone:
				*v = *w.Clone()
				clear(m)
				for i, x := range mw {
					m[i] = x
				}
			case fuzzEqual:
				if got, want := v.Equal(w), maps.Equal(m, mw); got != want {
					t.Fatalf("Equal = %v, reference %v", got, want)
				}
			case fuzzRewrite:
				s := fuzzScales[int(sel)%len(fuzzScales)]
				fn := func(i uint32, x float64) float64 {
					if k>>(i%8)&1 != 0 {
						return 0
					}
					return x * s
				}
				w.Entries(func(idx []uint32, vals []float64) {
					if !slices.IsSorted(idx) || len(idx) != len(mw) {
						t.Fatalf("Entries: %d indices %v, reference has %d, sorted", len(idx), idx, len(mw))
					}
					v.WriteRun(func(out []uint32, outVals []float64) ([]uint32, []float64) {
						for e, i := range idx {
							if x := fn(i, vals[e]); x != 0 {
								out, outVals = append(out, i), append(outVals, x)
							}
						}
						return out, outVals
					})
				})
				clear(m)
				for i, x := range mw {
					m.set(i, fn(i, x))
				}
			}
			checkAgainstModel(t, v, m)
			checkAgainstModel(t, w, mw)
		}
	})
}

// checkAgainstModel compares v with its reference through Len, Get,
// ForEach, Equal and an encode/decode round trip, then checks the run.
func checkAgainstModel(t *testing.T, v *Vector, m vecModel) {
	t.Helper()
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if v.Len() != len(m) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(m))
	}
	const keySpace = 2 * 256 // every key an op can name: a burst runs up to 255 past a one-byte key
	for k := uint32(0); k < keySpace; k++ {
		if got, want := v.Get(k), m[k]; !same(got, want) {
			t.Fatalf("Get(%d) = %v, want %v", k, got, want)
		}
	}
	prev, visited := int64(-1), 0
	v.ForEach(func(i uint32, val float64) {
		if int64(i) <= prev || !same(val, m[i]) {
			t.Fatalf("ForEach yielded (%d, %v) after index %d; reference has %v", i, val, prev, m[i])
		}
		prev = int64(i)
		visited++
	})
	if visited != len(m) {
		t.Fatalf("ForEach visited %d entries, want %d", visited, len(m))
	}
	dec, err := Decode(v.EncodeTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for i, want := range m {
		if want != 0 {
			nonzero++
			if got := dec.Get(i); !same(got, want) {
				t.Fatalf("round trip: entry %d = %v, want %v", i, got, want)
			}
		}
	}
	if dec.Len() != nonzero {
		t.Fatalf("round trip: %d entries, want %d", dec.Len(), nonzero)
	}
	if !v.Equal(dec) || !dec.Equal(v) {
		t.Fatal("Equal: a vector differs from its own round trip")
	}
	checkRun(t, v)
	checkRun(t, dec)
}

// checkRun asserts the invariant of a Vector: parallel entry arrays,
// indices strictly ascending, no exact zero.
func checkRun(t *testing.T, v *Vector) {
	t.Helper()
	if len(v.idx) != len(v.val) {
		t.Fatalf("entry arrays of lengths %d and %d", len(v.idx), len(v.val))
	}
	for k, i := range v.idx {
		if k > 0 && v.idx[k-1] >= i {
			t.Fatalf("run not strictly ascending: %d after %d", i, v.idx[k-1])
		}
		if v.val[k] == 0 {
			t.Fatalf("run stores a zero at %d", i)
		}
	}
}
