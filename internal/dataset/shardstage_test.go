package dataset

import (
	"errors"
	"testing"
	"time"

	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/shard"
	"mlless/internal/vclock"
	"mlless/internal/xrand"
)

func TestShardManifestRoundTrip(t *testing.T) {
	buf := EncodeShardManifest(120, 25, 8)
	nb, bs, bps, err := DecodeShardManifest(buf)
	if err != nil || nb != 120 || bs != 25 || bps != 8 {
		t.Fatalf("manifest round trip = (%d,%d,%d,%v)", nb, bs, bps, err)
	}
	for name, bad := range map[string][]byte{
		"short":   buf[:10],
		"long":    append(append([]byte(nil), buf...), 0),
		"magic":   append([]byte{0}, buf[1:]...),
		"version": append(append([]byte(nil), buf[:4]...), append([]byte{9, 0, 0, 0}, buf[8:]...)...),
	} {
		if _, _, _, err := DecodeShardManifest(bad); err == nil {
			t.Errorf("%s manifest accepted", name)
		}
	}
}

// sampleEqual compares a decoded sample against a shard view's sample k.
func sampleEqual(t *testing.T, s Sample, bv shard.BatchView, k int) {
	t.Helper()
	if s.IsRating() != bv.IsRating() {
		t.Fatalf("sample %d kind mismatch", k)
	}
	if s.IsRating() {
		if bv.User(k) != s.User || bv.Item(k) != s.Item || bv.Rating(k) != s.Label {
			t.Fatalf("sample %d = (%d,%d,%v), want (%d,%d,%v)",
				k, bv.User(k), bv.Item(k), bv.Rating(k), s.User, s.Item, s.Label)
		}
		return
	}
	if bv.Label(k) != s.Label {
		t.Fatalf("sample %d label %v, want %v", k, bv.Label(k), s.Label)
	}
	if !bv.Features(k).Equal(s.Features) {
		t.Fatalf("sample %d features differ", k)
	}
}

// TestStageShardsShuffleAndSplit pins the staging contract: staged
// batch i holds exactly samples i·B… of the seeded permutation
// Perm(n, seed) of the dataset, in that order — the shuffle every
// compared system reads (§6.1) and the one Table 3 re-cuts at other
// batch sizes.
func TestStageShardsShuffleAndSplit(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   func() *Dataset
	}{
		{"movielens", func() *Dataset { return GenerateMovieLens(smallMovieLens()) }},
		{"criteo", func() *Dataset {
			cfg := smallCriteo()
			cfg.Samples = 500
			return GenerateCriteo(cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := objstore.New(netmodel.Link{})
			var clk vclock.Clock
			const batchSize, seed = 64, 17
			ds := tc.ds()
			n := StageShards(ds, store, &clk, "s", batchSize, 3, seed)
			if want := (ds.Len() + batchSize - 1) / batchSize; n != want {
				t.Fatalf("StageShards staged %d batches, want %d", n, want)
			}
			sc, err := OpenShardCache(store, &clk, "s")
			if err != nil {
				t.Fatal(err)
			}
			if sc.NumBatches() != n || sc.BatchSize() != batchSize {
				t.Fatalf("manifest = (%d,%d), want (%d,%d)", sc.NumBatches(), sc.BatchSize(), n, batchSize)
			}
			order := xrand.New(seed).Perm(ds.Len())
			for i := 0; i < n; i++ {
				bv, err := sc.Fetch(&clk, i)
				if err != nil {
					t.Fatal(err)
				}
				want := order[i*batchSize : min(ds.Len(), (i+1)*batchSize)]
				if bv.Len() != len(want) {
					t.Fatalf("batch %d len %d, want %d", i, bv.Len(), len(want))
				}
				for k, j := range want {
					sampleEqual(t, ds.Samples[j], bv, k)
				}
			}
		})
	}
}

// TestShardCacheChargesRangePerFetch pins the shard tier's billing: a
// fetch costs one ranged read of the batch's block — first-byte latency
// plus the block's transfer — and repeated fetches of a cached-parse
// batch still pay it in full: workers re-download each iteration.
func TestShardCacheChargesRangePerFetch(t *testing.T) {
	link := netmodel.Link{Latency: 10 * time.Millisecond, BandwidthBps: 1e6}
	store := objstore.New(link)
	var clk vclock.Clock
	ds := GenerateMovieLens(smallMovieLens())
	n := StageShards(ds, store, &clk, "ml", 100, 4, 1)
	sc, err := OpenShardCache(store, &clk, "ml")
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := store.PeekView("ml", ShardKey(0))
	if !ok {
		t.Fatal("shard 0 missing")
	}
	sh, err := shard.Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	_, blockLen := sh.BatchExtent(2)
	want := link.TransferTime(blockLen)
	for pass := 0; pass < 2; pass++ {
		var fetchClk vclock.Clock
		if _, err := sc.Fetch(&fetchClk, 2); err != nil {
			t.Fatal(err)
		}
		if fetchClk.Now() != want {
			t.Fatalf("pass %d charged %v, want %v (block %d bytes)", pass, fetchClk.Now(), want, blockLen)
		}
	}
	if _, err := sc.Fetch(&clk, n); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if _, err := sc.Fetch(&clk, -1); err == nil {
		t.Fatal("negative batch accepted")
	}
}

func TestOpenShardCacheMissingManifest(t *testing.T) {
	store := objstore.New(netmodel.Link{})
	var clk vclock.Clock
	if _, err := OpenShardCache(store, &clk, "empty"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestShardViewsSurviveRestaging pins the immutable-snapshot contract:
// views handed out before a shard object is overwritten keep reading
// the old bytes.
func TestShardViewsSurviveRestaging(t *testing.T) {
	store := objstore.New(netmodel.Link{})
	var clk vclock.Clock
	ds := GenerateMovieLens(smallMovieLens())
	StageShards(ds, store, &clk, "ml", 100, 4, 1)
	sc, err := OpenShardCache(store, &clk, "ml")
	if err != nil {
		t.Fatal(err)
	}
	bv, err := sc.Fetch(&clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	u, it, r := bv.User(0), bv.Item(0), bv.Rating(0)
	store.Put(&clk, "ml", ShardKey(0), []byte("garbage"))
	if bv.User(0) != u || bv.Item(0) != it || bv.Rating(0) != r {
		t.Fatal("overwriting the shard object mutated a live view")
	}
}
