package sparse

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// FuzzVectorOps decodes a byte string as a sequence of operations on two
// vectors and runs it against map references. The compact table has two
// structures that must agree — the entry arrays and the slot index — and
// swap-remove touches both, so after every operation the contents are
// compared through every read path and the structural invariant of the
// vector's state is checked directly: a run must be strictly ascending,
// an indexed vector's table must index every entry at ¾ capacity. Every
// Set, Add of a non-zero value or Remove of a non-empty vector must
// leave it indexed, and no read path may change the state.
//
// Encoding: three bytes per operation — op, key, value selector. Bit 7
// of op swaps which vector is the target. Keys are one byte, so at the
// minimum table size sixteen of them share every home slot: collisions,
// long probe chains and chains that wrap around the end of the table
// come for free. Rewrite reads the key byte as a mask instead: it
// overwrites the target with a run of the other vector's entries, read
// with Entries and written with WriteRun, zeroing those whose index
// mod 8 is a set bit and rescaling the rest, so a drop shortens the run.
// Run empties the target and appends an ascending burst (starting a
// run); Append appends one entry, which stays a run only when it lies
// past the last.

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
	fuzzRewrite // WriteRun of the other vector's Entries, mapped
	fuzzRun     // Clear, then Append an ascending burst: a fresh run
	fuzzAppend  // Append one entry, ascending or not
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
	f.Add(seq(set(1), set(2), set(3), []byte{fuzzRewrite | 0x80, 0xff, 1}))                // every entry zeroed
	f.Add(seq(set(1), set(2), set(3), []byte{fuzzRewrite | 0x80, 1 << 3, 1}))              // only the last entry zeroed
	f.Add(seq(set(1), set(9), []byte{fuzzBurst | 0x80, 2, 30}, []byte{fuzzRewrite, 0, 2})) // indexed onto indexed
	// Runs: appended, copied, cloned, rewritten with drops, decoded
	// into, then probed by Set, Add and Remove.
	f.Add(seq([]byte{fuzzRun, 5, 13}, []byte{fuzzAppend, 200, 3}, []byte{fuzzCopyFrom | 0x80, 0, 0},
		[]byte{fuzzEqual, 0, 0}, []byte{fuzzRewrite, 0x55, 1}, []byte{fuzzAdd, 7, 2}))
	f.Add(seq([]byte{fuzzRun, 0, 40}, []byte{fuzzClone | 0x80, 0, 0}, []byte{fuzzRewrite | 0x80, 0x0f, 2},
		[]byte{fuzzDecodeInto, 0, 0}, []byte{fuzzRun | 0x80, 9, 7}, []byte{fuzzRemove | 0x80, 9, 0}))
	f.Add(seq([]byte{fuzzRun, 10, 9}, []byte{fuzzAppend, 3, 4}, []byte{fuzzSet, 50, 0}, []byte{fuzzRun, 1, 0}))

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
				probes := val != 0 || v.Len() > 0
				v.Set(k, val)
				m.set(k, val)
				checkIndexed(t, v, probes, "Set")
			case fuzzAdd:
				probes := val != 0
				v.Add(k, val)
				m.add(k, val)
				checkIndexed(t, v, probes, "Add")
			case fuzzRemove:
				probes := v.Len() > 0
				if got, want := v.Remove(k), m[k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Remove(%d) = %v, want %v", k, got, want)
				}
				delete(m, k)
				checkIndexed(t, v, probes, "Remove")
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
				v.Clear()
				clear(m)
				fallthrough
			case fuzzAppend:
				// sel picks the count (bits 0–2, plus one for Run) and the
				// stride (bits 3–4); values cycle through fuzzVals, zeros
				// included, which Append drops as Set would.
				count, stride := 1, uint32(sel>>3&3)+1
				if op&0x7f%fuzzOps == fuzzRun {
					count = int(sel&7) + 1
				}
				for n, i := 0, k; n < count; n, i = n+1, i+stride {
					x := fuzzVals[(int(sel)+n)%len(fuzzVals)]
					v.Append(i, x)
					m.set(i, x)
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
				if v.tab != nil {
					t.Fatal("WriteRun left an indexed vector")
				}
			}
			checkAgainstModel(t, v, m)
			checkAgainstModel(t, w, mw)
		}
	})
}

// checkIndexed fails unless an operation that probed the vector left it
// indexed.
func checkIndexed(t *testing.T, v *Vector, probed bool, op string) {
	t.Helper()
	if probed && v.tab == nil {
		t.Fatalf("%s probed a run but left it unindexed", op)
	}
}

// checkAgainstModel compares v with its reference through Len, Get,
// ForEach, ForEachSorted, Equal and an encode/decode round trip, checks
// that none of them changed v's state, then checks the structure.
func checkAgainstModel(t *testing.T, v *Vector, m vecModel) {
	t.Helper()
	run := v.tab == nil
	defer func() {
		if (v.tab == nil) != run {
			t.Fatalf("a read path changed the state: run %v, now %v", run, v.tab == nil)
		}
	}()
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
	prev, sortedN := int64(-1), 0
	v.ForEachSorted(func(i uint32, val float64) {
		if int64(i) <= prev || !same(val, m[i]) {
			t.Fatalf("ForEachSorted yielded (%d, %v) after index %d; reference has %v", i, val, prev, m[i])
		}
		prev = int64(i)
		sortedN++
	})
	if sortedN != len(m) {
		t.Fatalf("ForEachSorted visited %d entries, want %d", sortedN, len(m))
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
	checkTable(t, v)
	checkTable(t, dec)
}

// checkTable asserts the structural invariant of v's state. A run's
// entries are strictly ascending and non-zero. For an indexed vector,
// the entry arrays are sized in lock-step with the table; every
// non-zero slot points at an entry whose key's probe path, from its home
// slot, reaches that slot without crossing an empty one; and every entry
// is pointed at exactly once.
func checkTable(t *testing.T, v *Vector) {
	t.Helper()
	if len(v.idx) != len(v.val) {
		t.Fatalf("entry arrays of lengths %d and %d", len(v.idx), len(v.val))
	}
	if v.tab == nil {
		for k, i := range v.idx {
			if k > 0 && v.idx[k-1] >= i {
				t.Fatalf("run not strictly ascending: %d after %d", i, v.idx[k-1])
			}
			if v.val[k] == 0 {
				t.Fatalf("run stores a zero at %d", i)
			}
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
