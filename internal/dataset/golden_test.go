package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"hash/fnv"
	"strconv"
	"testing"

	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/sparse"
	"mlless/internal/vclock"
)

// stagedSHA stages ds and returns the SHA-256 over every object of the
// bucket — key, then bytes — in key order.
func stagedSHA(t testing.TB, ds *Dataset, batchSize, batchesPerShard int, seed uint64) string {
	t.Helper()
	store := objstore.New(netmodel.Link{})
	var clk vclock.Clock
	StageShards(ds, store, &clk, "g", batchSize, batchesPerShard, seed)
	h := sha256.New()
	for _, key := range store.List(&clk, "g", "") {
		blob, ok := store.PeekView("g", key)
		if !ok {
			t.Fatalf("object %s listed but missing", key)
		}
		h.Write([]byte(key))
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStagedShardGoldens pins the bytes every job stages: generation,
// min-max normalisation and staging together, for three Criteo shapes
// (heavy hash collisions, the zoo's width, lr-bsp-wide's width) and one
// MovieLens stream. The hashes were captured from the hash-table
// generator; any change to the draws, the rows or the shard encoding
// shows here.
func TestStagedShardGoldens(t *testing.T) {
	criteo := func(samples, hashDim int, seed uint64) *Dataset {
		cfg := DefaultCriteoConfig()
		cfg.Samples, cfg.HashDim, cfg.Seed = samples, hashDim, seed
		ds := GenerateCriteo(cfg)
		NormalizeInPlace(ds, cfg.NumericFeatures)
		return ds
	}
	for _, tc := range []struct {
		name            string
		ds              func() *Dataset
		batch, perShard int
		seed            uint64
		want            string
	}{
		{"criteo-3k-500", func() *Dataset { return criteo(3_000, 500, 5) }, 50, 0, 11,
			"e4a23a7d9519a3b09a6693772c555bde0328756a31d8e5a5abdb203eca8000f3"},
		{"criteo-12k-2e4", func() *Dataset { return criteo(12_000, 20_000, 6) }, 125, 3, 12,
			"100f35b60c8639bf4230f25cca84c977992d0e570c128ad007aeb71f244ebbfb"},
		{"criteo-2k-1e5", func() *Dataset { return criteo(2_000, 100_000, 7) }, 50, 0, 13,
			"9b23e90ac3e7fc5559b13063029370c180d49e4268d98d64f923c35e519369a0"},
		{"movielens", func() *Dataset { return GenerateMovieLens(smallMovieLens()) }, 156, 0, 14,
			"af093ddb7fff35ee7793ee0ccad4f3b44adbb888d727a0c41ae715a3d1a2e7cf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := stagedSHA(t, tc.ds(), tc.batch, tc.perShard, tc.seed); got != tc.want {
				t.Fatalf("staged SHA-256 = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestHashCat pins the hashing trick to its definition: FNV-1a over
// "field:value" in decimal, reduced modulo the hashed width.
func TestHashCat(t *testing.T) {
	oracle := func(field, value, hashDim int) uint32 {
		h := fnv.New32a()
		h.Write([]byte(strconv.Itoa(field) + ":" + strconv.Itoa(value)))
		return h.Sum32() % uint32(hashDim)
	}
	for _, tc := range []struct{ field, value, hashDim int }{
		{0, 0, 1}, {0, 0, 100_000}, {25, 9_999, 100_000}, {7, 123, 500},
		{12, 1, 20_000}, {3, 10_000_000, 1 << 31}, {99, 2_147_483_647, 100_003},
		{1, 42, 2}, {13, 0, 7},
	} {
		if got, want := hashCat(tc.field, tc.value, tc.hashDim), oracle(tc.field, tc.value, tc.hashDim); got != want {
			t.Errorf("hashCat(%d, %d, %d) = %d, want %d", tc.field, tc.value, tc.hashDim, got, want)
		}
	}
	for f := 0; f < 26; f++ {
		for v := 0; v < 2_000; v += 7 {
			if got, want := hashCat(f, v, 100_000), oracle(f, v, 100_000); got != want {
				t.Fatalf("hashCat(%d, %d) = %d, want %d", f, v, got, want)
			}
		}
	}
}

type entry struct {
	i uint32
	v float64
}

func entriesOf(v *sparse.Vector) []entry {
	var out []entry
	v.ForEachSorted(func(i uint32, val float64) { out = append(out, entry{i, val}) })
	return out
}

// TestNormalizeInPlaceTable pins normalisation's semantics on
// hand-built samples, indexed and as runs: each numeric coordinate f
// becomes (x−min)/span with an absent x counted as 0, a zero span
// gives 0, zeros are dropped, and every other entry is kept.
func TestNormalizeInPlaceTable(t *testing.T) {
	// Three numeric features. Feature 0 spans [−4, 4]: sample 1 lacks
	// it, so it counts as 0 and gains the entry 0.5, and sample 3 sits
	// at the min, so it scales to 0 and is dropped. Feature 1 is
	// constant 5 (zero span). Feature 2 spans [2, 6].
	rows := [][]entry{
		{{0, 2}, {1, 5}, {2, 2}, {7, 1}},
		{{1, 5}, {2, 6}, {4, 1}, {9, 3}},
		{{0, 4}, {1, 5}, {2, 4}},
		{{0, -4}, {1, 5}, {2, 4}},
	}
	want := [][]entry{
		{{0, 0.75}, {7, 1}},
		{{0, 0.5}, {2, 1}, {4, 1}, {9, 3}},
		{{0, 1}, {2, 0.5}},
		{{2, 0.5}},
	}
	build := map[string]func([]entry) *sparse.Vector{
		"indexed": func(es []entry) *sparse.Vector {
			v := sparse.New()
			for k := len(es) - 1; k >= 0; k-- {
				v.Set(es[k].i, es[k].v)
			}
			return v
		},
		"run": func(es []entry) *sparse.Vector {
			v := sparse.New()
			for _, e := range es {
				v.Append(e.i, e.v)
			}
			return v
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			ds := &Dataset{}
			for _, r := range rows {
				ds.Samples = append(ds.Samples, Sample{Features: mk(r), User: -1, Item: -1})
			}
			NormalizeInPlace(ds, 3)
			for k, s := range ds.Samples {
				got := entriesOf(s.Features)
				if len(got) != len(want[k]) || s.Features.Len() != len(want[k]) {
					t.Fatalf("sample %d = %v, want %v", k, got, want[k])
				}
				for j := range got {
					if got[j] != want[k][j] {
						t.Fatalf("sample %d = %v, want %v", k, got, want[k])
					}
				}
			}
		})
	}
}
