package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"mlless/internal/xrand"
)

// vectorFold is the oracle FoldEncoded must match byte for byte: acc
// and then every run folded into one Vector with AddEncodedSparse, in
// order, and encoded.
func vectorFold(t testing.TB, acc []byte, runs [][]byte) ([]byte, int) {
	t.Helper()
	v := New()
	if _, err := AddEncodedSparse(v, acc); err != nil {
		t.Fatal(err)
	}
	folded := 0
	for _, run := range runs {
		n, err := AddEncodedSparse(v, run)
		if err != nil {
			t.Fatal(err)
		}
		folded += n
	}
	return v.Encode(), folded
}

// checkFold folds acc and runs through s after a non-empty prefix in
// dst and fails unless the prefix survives and the appended bytes and
// folded count equal the Vector oracle's.
func checkFold(t *testing.T, s *FoldScratch, name string, acc []byte, runs [][]byte) {
	t.Helper()
	want, wantN := vectorFold(t, acc, runs)
	prefix := []byte("prefix")
	got, n, err := s.FoldEncoded(append([]byte(nil), prefix...), acc, runs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: dst prefix overwritten", name)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) || n != wantN {
		t.Fatalf("%s: fold = %x (%d folded), Vector fold = %x (%d)", name, got, n, want, wantN)
	}
}

func TestFoldEncodedMatchesVectorFold(t *testing.T) {
	negZero := math.Copysign(0, -1)
	enc := rawEncode
	empty := enc(nil, nil)
	for _, tc := range []struct {
		name string
		acc  []byte
		runs [][]byte
	}{
		{"acc only", enc([]uint32{2, 9, 70}, []float64{1, -2, 3}), nil},
		{"one run", empty, [][]byte{enc([]uint32{0, 64, 65}, []float64{0.1, 0.2, 0.3})}},
		{"all empty", empty, [][]byte{empty, empty}},
		{"empty among runs", enc([]uint32{1}, []float64{1}), [][]byte{empty, enc([]uint32{1}, []float64{0.5}), empty}},
		{"cancel then re-add", enc([]uint32{3, 4}, []float64{1, 0.1}),
			[][]byte{enc([]uint32{3}, []float64{-1}), enc([]uint32{3, 4}, []float64{0.1, 0.2})}},
		{"cancel to empty", enc([]uint32{7}, []float64{2.5}), [][]byte{enc([]uint32{7}, []float64{-2.5})}},
		{"negative zero", enc([]uint32{5}, []float64{negZero}),
			[][]byte{enc([]uint32{5, 6}, []float64{2, negZero}), enc([]uint32{5}, []float64{-2})}},
		{"duplicates in a run", enc([]uint32{4}, []float64{0.3}),
			[][]byte{enc([]uint32{4, 4, 2, 4}, []float64{0.1, 0.2, -0.3, 1e-17})}},
		{"unsorted past the last entry", enc([]uint32{10}, []float64{1}),
			[][]byte{enc([]uint32{900, 3, 5000, 64, 128}, []float64{1, 2, 3, 4, 5})}},
		{"order-sensitive sum", enc([]uint32{1}, []float64{0.1}),
			[][]byte{enc([]uint32{1}, []float64{0.2}), enc([]uint32{1}, []float64{0.3})}},
	} {
		var s FoldScratch
		checkFold(t, &s, tc.name, tc.acc, tc.runs)
	}
}

func TestFoldEncodedReusesScratch(t *testing.T) {
	// A second fold on the same scratch, over coordinates disjoint from
	// the first's, must not see anything the first left behind; a third
	// over the first's coordinates again must not either.
	r := xrand.New(41)
	var s FoldScratch
	lo := [][]byte{randomVector(r, 500, 200).Encode(), randomVector(r, 500, 200).Encode()}
	hi := make([][]byte, 3)
	for k := range hi {
		v := New()
		for e := 0; e < 150; e++ {
			v.Set(uint32(1000+r.Intn(3000)), r.NormFloat64())
		}
		hi[k] = v.Encode()
	}
	// Emission leaves every slot and bitmap word zero: the invariant
	// that lets a fold skip clearing.
	clean := func(name string) {
		for i, v := range s.sum {
			if v != 0 {
				t.Fatalf("%s: sum[%d] = %v after emission", name, i, v)
			}
		}
		for w, bits := range s.touched {
			if bits != 0 {
				t.Fatalf("%s: touched word %d = %#x after emission", name, w, bits)
			}
		}
	}
	checkFold(t, &s, "first", lo[0], lo[1:])
	clean("first")
	checkFold(t, &s, "disjoint", hi[0], hi[1:])
	clean("disjoint")
	checkFold(t, &s, "first again", lo[1], lo[:1])
	clean("first again")
}

func TestFoldEncodedRejectsMalformed(t *testing.T) {
	good := rawEncode([]uint32{1, 2}, []float64{1, 2})
	for _, tc := range []struct {
		name string
		acc  []byte
		runs [][]byte
	}{
		{"short acc", []byte{1, 0}, nil},
		{"truncated run", good, [][]byte{good, good[:len(good)-1]}},
		{"nil run", good, [][]byte{nil}},
		{"count beyond length", good, [][]byte{binary.LittleEndian.AppendUint32(nil, 1)}},
	} {
		var s FoldScratch
		dst := []byte("dst")
		got, n, err := s.FoldEncoded(dst, tc.acc, tc.runs)
		if err == nil || !strings.Contains(err.Error(), "fold encoded") {
			t.Fatalf("%s: err = %v, want a fold encoded error", tc.name, err)
		}
		if string(got) != "dst" || n != 0 {
			t.Fatalf("%s: returned %q, %d with the error", tc.name, got, n)
		}
		// Validation precedes every write, so the scratch stays clean.
		checkFold(t, &s, tc.name+" then valid", good, [][]byte{rawEncode([]uint32{2}, []float64{-2})})
	}
}

func TestFoldEncodedDoesNotAllocate(t *testing.T) {
	r := xrand.New(42)
	runs := make([][]byte, 4)
	for k := range runs {
		runs[k] = randomVector(r, 72000, 1500).Encode()
	}
	var s FoldScratch
	dst, _, err := s.FoldEncoded(nil, runs[0], runs[1:]) // warm scratch and dst
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		dst, _, _ = s.FoldEncoded(dst[:0], runs[0], runs[1:])
	}); n != 0 {
		t.Fatalf("FoldEncoded allocated %v per run", n)
	}
}

// FuzzFoldEncoded differentially tests FoldEncoded against the Vector
// fold. Encoding: four bytes per entry — run selector, a 16-bit index
// and a value selector over fuzzVals, whose ±0 and small integers
// cancel to exact zero and whose fractions make sums order-sensitive.
// Entries append to their run in input order, so runs come unsorted
// and with duplicates. Two folds share one scratch, the second over
// the runs in reverse, to exercise reuse.
func FuzzFoldEncoded(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 0, 3})                         // cancellation across runs
	f.Add([]byte{0, 7, 0, 8, 0, 7, 0, 9, 2, 7, 0, 2})             // duplicate, then a re-add
	f.Add([]byte{1, 0xff, 0xff, 10, 1, 0, 0, 11, 3, 0x40, 0, 1})  // growth past the last entry
	f.Add([]byte{4, 5, 0, 1, 4, 5, 0, 0, 0, 5, 0, 3, 2, 9, 9, 8}) // ±0 on a live slot
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRuns = 5
		var idx [maxRuns][]uint32
		var vals [maxRuns][]float64
		for ; len(data) >= 4; data = data[4:] {
			k := int(data[0]) % maxRuns
			idx[k] = append(idx[k], uint32(binary.LittleEndian.Uint16(data[1:])))
			vals[k] = append(vals[k], fuzzVals[int(data[3])%len(fuzzVals)])
		}
		runs := make([][]byte, maxRuns)
		for k := range runs {
			runs[k] = rawEncode(idx[k], vals[k])
		}
		var s FoldScratch
		emitted := New()
		emitted.Set(3, 1) // EmitTo must overwrite the entries
		for pass := 0; pass < 2; pass++ {
			want, wantN := vectorFold(t, runs[0], runs[1:])
			got, n, err := s.FoldEncoded(nil, runs[0], runs[1:])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || n != wantN {
				t.Fatalf("pass %d: fold = %x (%d folded), Vector fold = %x (%d)", pass, got, n, want, wantN)
			}
			// The same entries, in the same order, through Add and
			// EmitTo; the second pass finishes each sum with an
			// index-dependent term, which cancels some to zero. The
			// oracle is the Vector fold with the finisher applied to its
			// stored entries, zeros dropped.
			for _, run := range runs {
				addEncodedEntries(&s, run)
			}
			var finish func(i uint32, x float64) float64
			if pass == 1 {
				finish = func(i uint32, x float64) float64 { return x + fuzzVals[i%uint32(len(fuzzVals))] }
			}
			s.EmitTo(emitted, finish)
			oracle, err := Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			if finish != nil {
				finished := New()
				oracle.ForEach(func(i uint32, x float64) { finished.Set(i, finish(i, x)) })
				oracle = finished
			}
			checkRun(t, emitted)
			if g, w := emitted.Encode(), oracle.Encode(); !bytes.Equal(g, w) {
				t.Fatalf("pass %d: EmitTo = %x, Vector fold = %x", pass, g, w)
			}
			for i, j := 0, len(runs)-1; i < j; i, j = i+1, j-1 {
				runs[i], runs[j] = runs[j], runs[i]
			}
		}
	})
}

// addEncodedEntries sums every entry of an encoded run into s with Add,
// in encoding order.
func addEncodedEntries(s *FoldScratch, run []byte) {
	n := int(binary.LittleEndian.Uint32(run))
	for k := 0; k < n; k++ {
		e := run[sparseHeaderSize+k*sparseEntrySize:]
		s.Add(binary.LittleEndian.Uint32(e), math.Float64frombits(binary.LittleEndian.Uint64(e[4:])))
	}
}

// BenchmarkFoldEncoded times one tree fold at the shapes pmf-bsp-tree's
// levels see — four runs of 15 k entries and two of 60 k, over 72 k
// coordinates — through the dense kernel and through the Vector fold it
// replaced (AddEncodedSparse into a reused accumulator, then EncodeTo),
// reporting ns per input entry: the table in DESIGN.md §10.
func BenchmarkFoldEncoded(b *testing.B) {
	const dim = 72000
	for _, shape := range []struct{ runs, nnz int }{{4, 15000}, {2, 60000}} {
		r := xrand.New(43)
		runs := make([][]byte, shape.runs)
		entries := 0
		for k := range runs {
			runs[k] = randomVector(r, dim, shape.nnz).Encode()
			entries += (len(runs[k]) - sparseHeaderSize) / sparseEntrySize
		}
		perEntry := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		}
		name := fmt.Sprintf("%dx%dk", shape.runs, shape.nnz/1000)
		b.Run(name+"/dense", func(b *testing.B) {
			var s FoldScratch
			dst, _, _ := s.FoldEncoded(nil, runs[0], runs[1:])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, _, err = s.FoldEncoded(dst[:0], runs[0], runs[1:]); err != nil {
					b.Fatal(err)
				}
			}
			perEntry(b)
		})
		b.Run(name+"/vector", func(b *testing.B) {
			acc := New()
			var dst []byte
			for _, run := range runs { // grow the run and dst once, as a warm fold would
				_, _ = AddEncodedSparse(acc, run)
			}
			dst = acc.EncodeTo(dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Clear()
				for _, run := range runs {
					if _, err := AddEncodedSparse(acc, run); err != nil {
						b.Fatal(err)
					}
				}
				dst = acc.EncodeTo(dst[:0])
			}
			perEntry(b)
		})
	}
}

// TestAddRowMatchesAdd folds random rows, some starting past the
// scratch and some straddling or filling whole bitmap words, through
// AddRow and through one Add per entry, and compares the emissions.
func TestAddRowMatchesAdd(t *testing.T) {
	rng := xrand.New(5)
	var rows, entries FoldScratch
	for trial := 0; trial < 50; trial++ {
		for r := 0; r < 1+rng.Intn(6); r++ {
			base := uint32(rng.Intn(400))
			vals := make([]float64, rng.Intn(150))
			for k := range vals {
				vals[k] = fuzzVals[rng.Intn(len(fuzzVals))]
			}
			rows.AddRow(base, vals)
			for k, x := range vals {
				entries.Add(base+uint32(k), x)
			}
		}
		got, want := New(), New()
		rows.EmitTo(got, nil)
		entries.EmitTo(want, nil)
		if g, w := got.Encode(), want.Encode(); !bytes.Equal(g, w) {
			t.Fatalf("trial %d: AddRow emitted %v, Add %v", trial, got, want)
		}
	}
}
