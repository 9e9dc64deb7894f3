package dataset

import (
	"bytes"
	"errors"
	"testing"

	"mlless/internal/shard"
)

// memSink retains shard blobs by index.
type memSink struct{ blobs map[int][]byte }

func newMemSink() *memSink { return &memSink{blobs: make(map[int][]byte)} }

func (m *memSink) WriteShard(i int, blob []byte) error {
	m.blobs[i] = append([]byte(nil), blob...)
	return nil
}

// flatten parses the sink's feature shards in order and returns every
// sample as a decoded Sample.
func (m *memSink) flatten(t *testing.T) []Sample {
	t.Helper()
	var out []Sample
	for i := 0; i < len(m.blobs); i++ {
		blob, ok := m.blobs[i]
		if !ok {
			t.Fatalf("shard %d missing", i)
		}
		sh, err := shard.Parse(blob)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for b := 0; b < sh.NumBatches(); b++ {
			bv := sh.Batch(b)
			for k := 0; k < bv.Len(); k++ {
				out = append(out, Sample{Features: rowVector(bv, k), Label: bv.Label(k), User: -1, Item: -1})
			}
		}
	}
	return out
}

// TestStreamCriteoMatchesGenerate pins the streaming generator to the
// in-memory one: same seed, same samples, in generation order.
func TestStreamCriteoMatchesGenerate(t *testing.T) {
	cfg := smallCriteo()
	cfg.Samples = 1500
	sink := newMemSink()
	stats, err := StreamCriteo(cfg, StreamConfig{BatchSize: 100, BatchesPerShard: 3, Parallelism: 4}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != cfg.Samples || stats.Batches != 15 || stats.Shards != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	got := sink.flatten(t)
	want := GenerateCriteo(cfg).Samples
	if len(got) != len(want) {
		t.Fatalf("streamed %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Fatalf("sample %d label %v, want %v", i, got[i].Label, want[i].Label)
		}
		if !got[i].Features.Equal(want[i].Features) {
			t.Fatalf("sample %d features differ", i)
		}
	}
}

// TestStreamParallelismByteIdentical pins the determinism contract:
// the emitted shard bytes do not depend on the worker count.
func TestStreamParallelismByteIdentical(t *testing.T) {
	cfg := smallCriteo()
	cfg.Samples = 1200
	sc := StreamConfig{BatchSize: 75, BatchesPerShard: 2}
	one, eight := newMemSink(), newMemSink()
	sc.Parallelism = 1
	s1, err := StreamCriteo(cfg, sc, one)
	if err != nil {
		t.Fatal(err)
	}
	sc.Parallelism = 8
	s8, err := StreamCriteo(cfg, sc, eight)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s8 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s8)
	}
	if len(one.blobs) != len(eight.blobs) {
		t.Fatalf("shard counts differ: %d vs %d", len(one.blobs), len(eight.blobs))
	}
	for i := range one.blobs {
		if !bytes.Equal(one.blobs[i], eight.blobs[i]) {
			t.Fatalf("shard %d bytes differ between parallelism 1 and 8", i)
		}
	}
}

type failSink struct{ after int }

func (f *failSink) WriteShard(i int, _ []byte) error {
	if i >= f.after {
		return errors.New("disk full")
	}
	return nil
}

func TestStreamSinkErrorPropagates(t *testing.T) {
	cfg := smallCriteo()
	cfg.Samples = 1000
	_, err := StreamCriteo(cfg, StreamConfig{BatchSize: 50, BatchesPerShard: 2, Parallelism: 4}, &failSink{after: 1})
	if err == nil {
		t.Fatal("sink failure not propagated")
	}
}
