package sparse

import (
	"math"
	"slices"
	"testing"
)

// FuzzVectorOps decodes a byte string as a sequence of operations on two
// vectors and runs it against map references. The compact table has two
// structures that must agree — the entry arrays and the slot index — and
// swap-remove touches both, so after every operation the contents are
// compared through every read path and the structural invariant is
// checked directly.
//
// Encoding: three bytes per operation — op, key, value selector. Bit 7
// of op swaps which vector is the target. Keys are one byte, so at the
// minimum table size sixteen of them share every home slot: collisions,
// long probe chains and chains that wrap around the end of the table
// come for free. Transform reads the key byte as a mask instead: it
// zeroes the entries whose index mod 8 is a set bit and rescales the
// rest, so a drop compacts the entry arrays and re-indexes the table.

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
	fuzzBurst // Set a run of keys: forces growth past ¾
	fuzzDecodeInto
	fuzzTransform
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
	// Keys by home slot at the minimum table size, for the seeds below.
	var home [minCapacity][]byte
	for k := 0; k < 256; k++ {
		h := hashKey(uint32(k), minCapacity-1)
		home[h] = append(home[h], byte(k))
	}
	set := func(k byte) []byte { return []byte{fuzzSet, k, 2} }
	rm := func(k byte) []byte { return []byte{fuzzRemove, k, 0} }
	seq := func(ops ...[]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	last := home[minCapacity-1]
	f.Add(seq(set(1), rm(1)))                 // remove the only entry
	f.Add(seq(set(1), set(2), set(3), rm(3))) // remove the last entry
	f.Add(seq(set(1), set(2), set(3), rm(1))) // swap-remove: last moves into position 0
	// Removed entry and its moved replacement share one probe chain, in
	// both orders (the replacement's slot lies before / after the hole).
	f.Add(seq(set(home[5][0]), set(home[5][1]), set(home[5][2]), rm(home[5][0])))
	f.Add(seq(set(home[5][0]), set(home[5][1]), set(home[5][2]), rm(home[5][1])))
	// A chain that wraps from the last slot to slot 0, removed from the
	// head, so the backward shift crosses the wrap-around.
	f.Add(seq(set(last[0]), set(last[1]), set(home[0][0]), set(last[2]), rm(last[0]), rm(last[1])))
	f.Add(seq([]byte{fuzzAdd, 7, 2}, []byte{fuzzAdd, 7, 3}))                                    // exact cancellation
	f.Add(seq([]byte{fuzzBurst, 0, 200}, []byte{fuzzScale, 0, 1}, []byte{fuzzBurst, 100, 255})) // growth
	f.Add(seq([]byte{fuzzBurst, 3, 40}, []byte{fuzzCopyFrom | 0x80, 0, 0}, []byte{fuzzAddVector, 0, 0},
		[]byte{fuzzDecodeInto | 0x80, 0, 0}, []byte{fuzzClear, 0, 0}, []byte{fuzzCopyFrom, 0, 0}))
	f.Add(seq(set(1), set(2), set(3), []byte{fuzzTransform, 0xff, 1}))   // every entry zeroed
	f.Add(seq(set(1), set(2), set(3), []byte{fuzzTransform, 1 << 3, 1})) // only the last entry zeroed

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
			case fuzzTransform:
				s := fuzzScales[int(sel)%len(fuzzScales)]
				fn := func(i uint32, x float64) float64 {
					if k>>(i%8)&1 != 0 {
						return 0
					}
					return x * s
				}
				var order, survivors, calls []uint32
				v.ForEach(func(i uint32, x float64) {
					order = append(order, i)
					if fn(i, x) != 0 {
						survivors = append(survivors, i)
					}
				})
				v.Transform(func(i uint32, x float64) float64 {
					calls = append(calls, i)
					return fn(i, x)
				})
				for i, x := range m {
					m.set(i, fn(i, x))
				}
				checkOrder(t, "Transform calls", calls, order)
				var after []uint32
				v.ForEach(func(i uint32, _ float64) { after = append(after, i) })
				checkOrder(t, "Transform survivors", after, survivors)
			}
			checkAgainstModel(t, v, m)
			checkAgainstModel(t, w, mw)
		}
	})
}

// checkOrder fails unless got lists exactly the indices of want, in
// want's order.
func checkOrder(t *testing.T, what string, got, want []uint32) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: order %v, want %v", what, got, want)
	}
}

// checkAgainstModel compares v with its reference through Len, Get,
// ForEach and an encode/decode round trip, then checks the table.
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
	var seen [keySpace]bool
	visited := 0
	v.ForEach(func(i uint32, val float64) {
		if want, ok := m[i]; !ok || seen[i] || !same(val, want) {
			t.Fatalf("ForEach yielded (%d, %v); reference has %v (present %v), seen before %v", i, val, want, ok, seen[i])
		}
		seen[i] = true
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
	checkTable(t, v)
	checkTable(t, dec)
}

// checkTable asserts the structural invariant: the entry arrays are
// sized in lock-step with the table; every non-zero slot points at an
// entry whose key's probe path, from its home slot, reaches that slot
// without crossing an empty one; and every entry is pointed at exactly
// once.
func checkTable(t *testing.T, v *Vector) {
	t.Helper()
	if v.tab == nil {
		if len(v.idx) != 0 || len(v.val) != 0 {
			t.Fatalf("entries without a table: %d", len(v.idx))
		}
		return
	}
	n := len(v.tab)
	if n < minCapacity || n&(n-1) != 0 {
		t.Fatalf("table size %d is not a power of two ≥ %d", n, minCapacity)
	}
	if len(v.idx) != len(v.val) || cap(v.idx) != n/4*3 || cap(v.val) != n/4*3 {
		t.Fatalf("entry arrays len %d/%d cap %d/%d, want equal lengths and cap %d",
			len(v.idx), len(v.val), cap(v.idx), cap(v.val), n/4*3)
	}
	mask := uint32(n - 1)
	pointed := make([]bool, len(v.idx))
	for slot, e := range v.tab {
		if e == 0 {
			continue
		}
		if int(e) > len(v.idx) {
			t.Fatalf("slot %d points past the entries: %d > %d", slot, e, len(v.idx))
		}
		if pointed[e-1] {
			t.Fatalf("entry %d is pointed at twice", e-1)
		}
		pointed[e-1] = true
		for s := hashKey(v.idx[e-1], mask); s != uint32(slot); s = (s + 1) & mask {
			if v.tab[s] == 0 {
				t.Fatalf("key %d at slot %d is unreachable: slot %d on its probe path is empty", v.idx[e-1], slot, s)
			}
		}
	}
	for p, ok := range pointed {
		if !ok {
			t.Fatalf("entry %d (key %d) has no slot", p, v.idx[p])
		}
	}
}
