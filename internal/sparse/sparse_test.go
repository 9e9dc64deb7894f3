package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mlless/internal/xrand"
)

// decode reads an encoded vector back: AddEncodedSparse into an empty
// vector keeps exactly the encoding's entries.
func decode(buf []byte) (*Vector, error) {
	v := New()
	if _, err := AddEncodedSparse(v, buf); err != nil {
		return nil, err
	}
	return v, nil
}

func randomVector(r *xrand.RNG, maxIdx, nnz int) *Vector {
	v := New()
	for i := 0; i < nnz; i++ {
		v.Set(uint32(r.Intn(maxIdx)), r.NormFloat64())
	}
	return v
}

func TestSetGetRemove(t *testing.T) {
	v := New()
	v.Set(3, 1.5)
	v.Set(100000, -2)
	if got := v.Get(3); got != 1.5 {
		t.Fatalf("Get(3) = %v", got)
	}
	if got := v.Get(4); got != 0 {
		t.Fatalf("Get(4) = %v, want 0", got)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	if got := v.Remove(3); got != 1.5 {
		t.Fatalf("Remove(3) = %v", got)
	}
	if v.Len() != 1 || v.Get(3) != 0 {
		t.Fatal("Remove did not delete entry")
	}
}

func TestSetZeroRemovesEntry(t *testing.T) {
	v := New()
	v.Set(7, 1)
	v.Set(7, 0)
	if v.Len() != 0 {
		t.Fatal("Set(i, 0) left an entry behind")
	}
}

func TestAddCancellationRemovesEntry(t *testing.T) {
	v := New()
	v.Add(7, 2.5)
	v.Add(7, -2.5)
	if v.Len() != 0 {
		t.Fatal("exact cancellation left an entry behind")
	}
}

func TestScale(t *testing.T) {
	v := New()
	v.Set(0, 2)
	v.Set(9, -4)
	v.Scale(0.5)
	if v.Get(0) != 1 || v.Get(9) != -2 {
		t.Fatalf("Scale result: %v", v)
	}
	v.Scale(0)
	if v.Len() != 0 {
		t.Fatal("Scale(0) did not clear")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := New()
	v.Set(1, 1)
	c := v.Clone()
	c.Set(1, 99)
	if v.Get(1) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestIndicesSorted(t *testing.T) {
	r := xrand.New(2)
	v := randomVector(r, 1000, 100)
	var idx []uint32
	v.ForEach(func(i uint32, val float64) {
		if v.Get(i) != val {
			t.Fatalf("ForEach paired %d with %v, Get says %v", i, val, v.Get(i))
		}
		idx = append(idx, i)
	})
	for i := 1; i < len(idx); i++ {
		if idx[i-1] >= idx[i] {
			t.Fatalf("ForEach not strictly ascending at %d: %v >= %v", i, idx[i-1], idx[i])
		}
	}
	if len(idx) != v.Len() {
		t.Fatalf("ForEach visited %d entries, Len %d", len(idx), v.Len())
	}
}

func TestDenseAddSparse(t *testing.T) {
	d := NewDense(4)
	v := New()
	v.Set(1, 5)
	v.Set(99, 1) // out of range: ignored
	d.AddSparse(v)
	if d[1] != 5 {
		t.Fatalf("AddSparse: %v", d)
	}
	d.AddScaledSparse(v, -1)
	if d[1] != 0 {
		t.Fatalf("AddScaledSparse: %v", d)
	}
}

func TestDenseAverage(t *testing.T) {
	a := Dense{2, 4}
	b := Dense{4, 0}
	a.Average(b)
	if a[0] != 3 || a[1] != 2 {
		t.Fatalf("Average: %v", a)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := xrand.New(3)
	if err := quick.Check(func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		v := randomVector(rr, 1<<20, rr.Intn(200))
		buf := v.EncodeTo(nil)
		if len(buf) != v.EncodedSize() {
			return false
		}
		got, err := decode(buf)
		if err != nil {
			return false
		}
		return got.Equal(v)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := xrand.New(4)
	v := randomVector(r, 1000, 50)
	a, b := v.EncodeTo(nil), v.EncodeTo(nil)
	if string(a) != string(b) {
		t.Fatal("EncodeTo is not deterministic")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decode(nil); err == nil {
		t.Fatal("decoding nil succeeded")
	}
	if _, err := decode([]byte{1, 0, 0, 0}); err == nil {
		t.Fatal("decoding a truncated payload succeeded")
	}
	v := New()
	v.Set(1, 1)
	buf := v.EncodeTo(nil)
	if _, err := decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("decoding a short payload succeeded")
	}
	if _, err := decode(append(buf, 0)); err == nil {
		t.Fatal("decoding a payload with trailing bytes succeeded")
	}
}

func TestDenseEncodeDecodeRoundTrip(t *testing.T) {
	d := Dense{0, 1.5, math.Pi, -42}
	buf := d.Encode()
	if len(buf) != DenseEncodedSize(len(d)) {
		t.Fatalf("encoded size %d", len(buf))
	}
	got, err := DecodeDense(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if got[i] != d[i] {
			t.Fatalf("mismatch at %d: %v != %v", i, got[i], d[i])
		}
	}
}

func TestDecodeDenseErrors(t *testing.T) {
	if _, err := DecodeDense([]byte{0}); err == nil {
		t.Fatal("DecodeDense short buffer succeeded")
	}
	d := Dense{1}
	buf := d.Encode()
	if _, err := DecodeDense(buf[:len(buf)-2]); err == nil {
		t.Fatal("DecodeDense truncated buffer succeeded")
	}
}

// TestAverageEncodedMatchesDecodedAverage pins the eviction merge: it
// averages a replica straight from its encoding, bit-equal to decoding
// it and calling Average, and rejects the buffers DecodeDense rejects
// (short, truncated, overlong) and replicas of another width, leaving d
// untouched.
func TestAverageEncodedMatchesDecodedAverage(t *testing.T) {
	r := xrand.New(11)
	const n = 1000
	d, rep := NewDense(n), NewDense(n)
	for i := range d {
		d[i], rep[i] = r.NormFloat64(), r.NormFloat64()*1e3
	}
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.NaN()}
	for k, v := range special {
		d[k], rep[len(special)+k] = v, v
	}
	buf := rep.Encode()
	decoded, err := DecodeDense(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Clone()
	want.Average(decoded)
	got := d.Clone()
	if m, err := AverageEncoded(got, buf); err != nil || m != n {
		t.Fatalf("AverageEncoded = %d, %v; want %d, nil", m, err, n)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("coord %d: %v, Average(DecodeDense) gives %v", i, got[i], want[i])
		}
	}

	for name, bad := range map[string][]byte{
		"short":     buf[:denseHeaderSize-1],
		"truncated": buf[:len(buf)-2],
		"long":      append(append([]byte(nil), buf...), 0),
		"width":     NewDense(n - 1).Encode(),
	} {
		dst := d.Clone()
		if _, err := AverageEncoded(dst, bad); err == nil {
			t.Fatalf("%s buffer: AverageEncoded succeeded", name)
		}
		if _, err := DecodeDense(bad); err == nil && name != "width" {
			t.Fatalf("%s buffer: DecodeDense succeeded", name)
		}
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(d[i]) {
				t.Fatalf("%s buffer: coord %d changed on error", name, i)
			}
		}
	}
}

// TestRunAgainstReferenceModel drives one vector with a long random op
// sequence and checks it against a plain map: inserts and deletions in
// the middle of the run shift its tail, which is the risky part.
func TestRunAgainstReferenceModel(t *testing.T) {
	r := xrand.New(99)
	v := New()
	ref := make(map[uint32]float64)
	const ops = 200000
	for op := 0; op < ops; op++ {
		i := uint32(r.Intn(500)) // small key space: edits land on present entries too
		switch r.Intn(4) {
		case 0:
			val := r.NormFloat64()
			v.Set(i, val)
			if val == 0 {
				delete(ref, i)
			} else {
				ref[i] = val
			}
		case 1:
			val := float64(r.Intn(5) - 2) // integer deltas force exact cancellation
			v.Add(i, val)
			s := ref[i] + val
			if s == 0 {
				delete(ref, i)
			} else {
				ref[i] = s
			}
		case 2:
			got := v.Remove(i)
			want := ref[i]
			if got != want {
				t.Fatalf("op %d: Remove(%d) = %v, want %v", op, i, got, want)
			}
			delete(ref, i)
		case 3:
			if got, want := v.Get(i), ref[i]; got != want {
				t.Fatalf("op %d: Get(%d) = %v, want %v", op, i, got, want)
			}
		}
		if v.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, v.Len(), len(ref))
		}
	}
	// Final full comparison.
	count := 0
	v.ForEach(func(i uint32, val float64) {
		count++
		if ref[i] != val {
			t.Fatalf("final: entry %d = %v, want %v", i, val, ref[i])
		}
	})
	if count != len(ref) {
		t.Fatalf("final: iterated %d entries, want %d", count, len(ref))
	}
}

func TestZeroValueVectorUsable(t *testing.T) {
	var v Vector
	if v.Len() != 0 || v.Get(1) != 0 || v.Remove(2) != 0 {
		t.Fatal("zero-value reads broken")
	}
	v.Add(3, 1.5)
	if v.Get(3) != 1.5 {
		t.Fatal("zero-value Add broken")
	}
}

func TestAddEncodedMatchesDecodeApply(t *testing.T) {
	r := xrand.New(201)
	if err := quick.Check(func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		v := randomVector(rr, 100, rr.Intn(40))
		buf := v.EncodeTo(nil)

		viaDecode := NewDense(100)
		dec, err := decode(buf)
		if err != nil {
			return false
		}
		viaDecode.AddSparse(dec)

		direct := NewDense(100)
		n, err := AddEncoded(direct, buf)
		if err != nil || n != v.Len() {
			return false
		}
		for i := range direct {
			if direct[i] != viaDecode[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEncodedIgnoresOutOfRange(t *testing.T) {
	v := New()
	v.Set(2, 1.5)
	v.Set(50, -1)
	d := NewDense(10)
	n, err := AddEncoded(d, v.EncodeTo(nil))
	if err != nil || n != 2 {
		t.Fatalf("AddEncoded = %d, %v", n, err)
	}
	if d[2] != 1.5 {
		t.Fatal("in-range entry not applied")
	}
}

func TestAddEncodedErrors(t *testing.T) {
	d := NewDense(4)
	if _, err := AddEncoded(d, nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	v := New()
	v.Set(1, 1)
	buf := v.EncodeTo(nil)
	if _, err := AddEncoded(d, buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

// TestAddEncodedSparseMatchesAddVector folds one encoded vector into
// another and compares it with adding the vector entry by entry.
func TestAddEncodedSparseMatchesAddVector(t *testing.T) {
	r := xrand.New(77)
	if err := quick.Check(func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		acc := randomVector(rr, 100, rr.Intn(30))
		contrib := randomVector(rr, 100, rr.Intn(30))

		viaVector := acc.Clone()
		contrib.ForEach(viaVector.Add)

		direct := acc.Clone()
		n, err := AddEncodedSparse(direct, contrib.EncodeTo(nil))
		if err != nil || n != contrib.Len() {
			return false
		}
		return direct.Equal(viaVector)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEncodedSparseErrors(t *testing.T) {
	acc := New()
	if _, err := AddEncodedSparse(acc, nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	v := New()
	v.Set(1, 1)
	buf := v.EncodeTo(nil)
	if _, err := AddEncodedSparse(acc, buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

// TestAddEncodedSparseMergeMatchesAdd folds buffers into accumulators
// through AddEncodedSparse, which merges a strictly ascending buffer and
// adds any other entry by entry, and through one Add per entry in
// encoding order: the entries must agree bit for bit. The fixed cases
// cover exact cancellation, ±0 and NaN values, an empty accumulator,
// buffers lying before, after and among the accumulator's indices, and
// buffers that do not ascend; random ones follow.
func TestAddEncodedSparseMergeMatchesAdd(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	enc := rawEncode
	acc := []uint32{10, 20, 30, 40}
	accVals := []float64{1, -2, 3, nan}
	for _, tc := range []struct {
		name string
		idx  []uint32
		vals []float64
		buf  []byte
	}{
		{"empty buffer", acc, accVals, enc(nil, nil)},
		{"empty accumulator", nil, nil, enc([]uint32{1, 5, 9}, []float64{1, negZero, 2})},
		{"before", acc, accVals, enc([]uint32{0, 3, 9}, []float64{0.5, 1, 2})},
		{"after", acc, accVals, enc([]uint32{41, 50, 1 << 31}, []float64{0.5, 1, 2})},
		{"interleaved", acc, accVals, enc([]uint32{5, 10, 25, 30, 45}, []float64{1, 2, 3, 4, 5})},
		{"every sum cancels", acc[:3], accVals[:3], enc([]uint32{10, 20, 30}, []float64{-1, 2, -3})},
		{"some sums cancel", acc, accVals, enc([]uint32{0, 20, 35, 40}, []float64{7, 2, 8, 1})},
		{"signed zeros", acc, accVals, enc([]uint32{10, 15, 20, 50}, []float64{0, negZero, negZero, 0})},
		{"NaN", acc, accVals, enc([]uint32{10, 12, 40}, []float64{nan, nan, 1})},
		{"not ascending", acc, accVals, enc([]uint32{30, 10, 5, 30}, []float64{-3, 4, 1, 2})},
		{"repeated index", acc, accVals, enc([]uint32{20, 20, 20}, []float64{1, 1, 0})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := New()
			for k, i := range tc.idx {
				v.Set(i, tc.vals[k])
			}
			checkMergeMatchesAdd(t, v, tc.buf)
		})
	}
	r := xrand.New(78)
	for trial := 0; trial < 200; trial++ {
		v := randomVector(r, 300, r.Intn(80))
		buf := randomVector(r, 300, r.Intn(80))
		// Copy some of v's values negated, so their sums cancel.
		v.ForEach(func(i uint32, x float64) {
			if r.Intn(3) == 0 {
				buf.Set(i, -x)
			}
		})
		checkMergeMatchesAdd(t, v, buf.EncodeTo(nil))
	}
}

// checkMergeMatchesAdd fails unless AddEncodedSparse(v, buf) leaves the
// entries a copy of v gets from one Add per entry of buf.
func checkMergeMatchesAdd(t *testing.T, v *Vector, buf []byte) {
	t.Helper()
	want := v.Clone()
	n := int(binary.LittleEndian.Uint32(buf))
	for k := 0; k < n; k++ {
		want.Add(entry(buf, k))
	}
	if got, err := AddEncodedSparse(v, buf); err != nil || got != n {
		t.Fatalf("AddEncodedSparse = %d, %v; want %d, nil", got, err, n)
	}
	checkRun(t, v)
	bits := func(u *Vector) []uint64 {
		out := make([]uint64, len(u.val))
		for k, x := range u.val {
			out[k] = math.Float64bits(x)
		}
		return out
	}
	if !slices.Equal(v.idx, want.idx) || !slices.Equal(bits(v), bits(want)) {
		t.Fatalf("merged %v (bits %x), per-entry Add %v (bits %x)", v.idx, bits(v), want.idx, bits(want))
	}
}

func TestVectorString(t *testing.T) {
	v := New()
	for i := 0; i < 12; i++ {
		v.Set(uint32(i), float64(i))
	}
	s := v.String()
	if !strings.Contains(s, "sparse{") || !strings.Contains(s, "…(+") {
		t.Fatalf("String = %s", s)
	}
	if (New()).String() != "sparse{}" {
		t.Fatal("empty String wrong")
	}
}

func TestDenseCloneIndependence(t *testing.T) {
	d := Dense{3, 4}
	c := d.Clone()
	c[0] = 99
	if d[0] != 3 {
		t.Fatal("Dense.Clone aliases")
	}
}

func TestEqualNegativeCases(t *testing.T) {
	a, b := New(), New()
	a.Set(1, 1)
	if a.Equal(b) {
		t.Fatal("different lengths equal")
	}
	b.Set(1, 2)
	if a.Equal(b) {
		t.Fatal("different values equal")
	}
	b.Set(1, 1)
	if !a.Equal(b) {
		t.Fatal("identical vectors unequal")
	}
}

// TestRunReadersShareOneRun calls the read-only methods concurrently on
// one shared run (mini-batch vectors are shared this way): under the
// race detector this proves none of them writes to the vector.
func TestRunReadersShareOneRun(t *testing.T) {
	r := xrand.New(17)
	d := NewDense(5000)
	run, twin := New(), New()
	for i := range d {
		if r.Intn(3) == 0 {
			d[i] = r.NormFloat64()
			run.Set(uint32(i), d[i])
			twin.Set(uint32(i), d[i])
		}
	}
	want := run.EncodeTo(nil)
	var wg sync.WaitGroup
	errs := make(chan string, 4*8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				for i := uint32(g); i < 5000; i += 97 {
					if run.Get(i) != d[i] {
						errs <- fmt.Sprintf("Get(%d) = %v, want %v", i, run.Get(i), d[i])
						return
					}
				}
				if !run.Equal(twin) || !twin.Equal(run) {
					errs <- "Equal: run differs from its twin"
					return
				}
				if !bytes.Equal(run.EncodeTo(nil), want) {
					errs <- "EncodeTo differs"
					return
				}
				prev := int64(-1)
				run.ForEach(func(i uint32, _ float64) {
					if int64(i) <= prev {
						errs <- "ForEach out of order"
					}
					prev = int64(i)
				})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
