package objstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mlless/internal/netmodel"
	"mlless/internal/vclock"
)

func fastStore() *Store { return New(netmodel.Link{}) }

func TestPutGet(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Put(&clk, "data", "batch-0", []byte("payload"))
	got, err := s.Get(&clk, "data", "batch-0")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestGetMissingWrapsErrNotFound(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	_, err := s.Get(&clk, "data", "nope")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	_, err = s.Get(&clk, "nobucket", "nope")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing bucket err = %v", err)
	}
}

// TestValueCopiedAtBoundary pins the read side of the ownership rule:
// Get returns a copy. (Put keeps the caller's slice; see
// TestPutKeepsCallerSlice.)
func TestValueCopiedAtBoundary(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Put(&clk, "b", "k", []byte("abc"))
	got, _ := s.Get(&clk, "b", "k")
	if string(got) != "abc" {
		t.Fatalf("Get = %q", got)
	}
	got[0] = 'Y'
	again, _ := s.Get(&clk, "b", "k")
	if string(again) != "abc" {
		t.Fatal("Get aliased internal buffer")
	}
}

func TestSize(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Put(&clk, "b", "k", make([]byte, 123))
	n, err := s.Size(&clk, "b", "k")
	if err != nil || n != 123 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if _, err := s.Size(&clk, "b", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size missing err = %v", err)
	}
}

func TestDeleteIdempotent(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Put(&clk, "b", "k", []byte("v"))
	s.Delete(&clk, "b", "k")
	s.Delete(&clk, "b", "k") // no error, no panic
	if _, err := s.Get(&clk, "b", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("object survived Delete")
	}
}

func TestListPrefixSorted(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	for _, k := range []string{"train/2", "train/0", "test/0", "train/1"} {
		s.Put(&clk, "b", k, []byte("x"))
	}
	got := s.List(&clk, "b", "train/")
	want := []string{"train/0", "train/1", "train/2"}
	if len(got) != 3 {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v", got)
		}
	}
}

func TestClockCharging(t *testing.T) {
	link := netmodel.Link{Latency: 10 * time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var clk vclock.Clock
	s.Put(&clk, "b", "k", make([]byte, 1e6))
	want := 10*time.Millisecond + time.Second
	if clk.Now() != want {
		t.Fatalf("Put charged %v, want %v", clk.Now(), want)
	}
	var getClk vclock.Clock
	if _, err := s.Get(&getClk, "b", "k"); err != nil {
		t.Fatal(err)
	}
	if getClk.Now() != want {
		t.Fatalf("Get charged %v, want %v", getClk.Now(), want)
	}
	var missClk vclock.Clock
	_, _ = s.Get(&missClk, "b", "missing")
	if missClk.Now() != 10*time.Millisecond {
		t.Fatalf("miss charged %v", missClk.Now())
	}
}

func TestMetrics(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Put(&clk, "b", "k", []byte("12345"))
	_, _ = s.Get(&clk, "b", "k")
	s.List(&clk, "b", "")
	s.Delete(&clk, "b", "k")
	reg := s.Registry()
	load := func(name string) int64 { return reg.Counter(name).Load() }
	if load("obj.puts") != 1 || load("obj.gets") != 1 || load("obj.lists") != 1 || load("obj.deletes") != 1 {
		t.Fatalf("counters: puts=%d gets=%d lists=%d deletes=%d",
			load("obj.puts"), load("obj.gets"), load("obj.lists"), load("obj.deletes"))
	}
	if load("obj.bytes_written") != 5 || load("obj.bytes_read") != 5 {
		t.Fatalf("byte counters: written=%d read=%d", load("obj.bytes_written"), load("obj.bytes_read"))
	}
}

func TestPutMultiGetMulti(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.PutMulti(&clk, "x", []string{"a", "b"}, [][]byte{[]byte("va"), []byte("vb")})
	out := s.GetMultiViewInto(&clk, "x", []string{"a", "missing", "b"}, nil)
	if string(out[0]) != "va" || out[1] != nil || string(out[2]) != "vb" {
		t.Fatalf("views = %q", out)
	}
}

func TestGetMultiViewIntoReusesAndResets(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.PutMulti(&clk, "x", []string{"a", "b", "c"}, [][]byte{{1}, {2}, {3}})

	out := s.GetMultiViewInto(&clk, "x", []string{"a", "b", "c"}, nil)
	if len(out) != 3 || out[0][0] != 1 || out[1][0] != 2 || out[2][0] != 3 {
		t.Fatalf("first read = %v", out)
	}

	// A shorter read through the same slice must reuse its backing
	// array, and a now-missing key must come back nil, not a stale
	// view from the previous call.
	out2 := s.GetMultiViewInto(&clk, "x", []string{"missing", "b"}, out)
	if &out2[0] != &out[0] {
		t.Fatal("GetMultiViewInto reallocated despite sufficient capacity")
	}
	if out2[0] != nil || out2[1][0] != 2 {
		t.Fatalf("reused read = %v", out2)
	}

	// Growth past capacity reallocates.
	out3 := s.GetMultiViewInto(&clk, "x", []string{"a", "b", "c", "a", "b"}, out2)
	if len(out3) != 5 || out3[3][0] != 1 || out3[4][0] != 2 {
		t.Fatalf("grown read = %v", out3)
	}
}

// TestPutKeepsCallerSlice pins the write side of the ownership rule:
// Put and PutMulti store the caller's slices themselves, and every view
// reader returns them.
func TestPutKeepsCallerSlice(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	one, a, b := []byte{1, 2}, []byte{3}, []byte{4, 5, 6}
	s.Put(&clk, "x", "one", one)
	s.PutMulti(&clk, "x", []string{"a", "b"}, [][]byte{a, b})
	views := s.GetMultiViewInto(&clk, "x", []string{"one", "a", "b"}, nil)
	for i, want := range [][]byte{one, a, b} {
		if &views[i][0] != &want[0] || len(views[i]) != len(want) {
			t.Fatalf("view %d is a copy, want the caller's slice", i)
		}
	}
	if r, err := s.GetRangeView(&clk, "x", "b", 1, 2); err != nil || &r[0] != &b[1] {
		t.Fatalf("GetRangeView = %v, %v; want a view of the caller's slice", r, err)
	}
	if p, ok := s.PeekView("x", "one"); !ok || &p[0] != &one[0] {
		t.Fatal("PeekView does not see the caller's slice")
	}
}

// TestMultiViewsAreImmutableSnapshots pins what a retained view may
// rely on: overwriting and deleting its key never mutate it, because
// Put replaces stored slices wholesale and Delete drops them.
func TestMultiViewsAreImmutableSnapshots(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.PutMulti(&clk, "x", []string{"k"}, [][]byte{{7}})
	view := s.GetMultiViewInto(&clk, "x", []string{"k"}, nil)[0]
	if view[0] != 7 {
		t.Fatalf("view = %v", view)
	}

	s.Put(&clk, "x", "k", []byte{8})
	s.Delete(&clk, "x", "k")
	if view[0] != 7 {
		t.Fatal("later write mutated a retained view")
	}
}

func TestMultiCharging(t *testing.T) {
	link := netmodel.Link{Latency: 10 * time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var clk vclock.Clock
	vals := [][]byte{make([]byte, 1e6), make([]byte, 5e5)}
	s.PutMulti(&clk, "b", []string{"big", "small"}, vals)
	// Two streams of a 1 MB/s link fit inside the NIC line rate, so
	// each keeps its full per-stream bandwidth; the slowest branch
	// (1 MB at 1 MB/s, plus first-byte latency) sets the elapsed time.
	want := 10*time.Millisecond + time.Second
	if clk.Now() != want {
		t.Fatalf("PutMulti charged %v, want %v", clk.Now(), want)
	}

	var getClk vclock.Clock
	s.GetMultiViewInto(&getClk, "b", []string{"big", "small"}, nil)
	if getClk.Now() != want {
		t.Fatalf("GetMultiViewInto charged %v, want %v", getClk.Now(), want)
	}

	// A missing key costs one round trip on its branch; with the other
	// branch transferring 1 MB the slowest branch still dominates.
	var missClk vclock.Clock
	s.GetMultiViewInto(&missClk, "b", []string{"big", "absent"}, nil)
	if missClk.Now() != want {
		t.Fatalf("miss branch charged %v, want %v", missClk.Now(), want)
	}

	// Many concurrent streams split the NIC: 4 streams of a link faster
	// than NIC/4 are clamped to NIC/4 each.
	fat := New(netmodel.Link{Latency: time.Millisecond, BandwidthBps: netmodel.GbpsNIC})
	var fatClk vclock.Clock
	quarter := make([][]byte, 4)
	for i := range quarter {
		quarter[i] = make([]byte, 1e6)
	}
	fat.PutMulti(&fatClk, "b", []string{"0", "1", "2", "3"}, quarter)
	wantFat := time.Millisecond + time.Duration(1e6/(netmodel.GbpsNIC/4)*float64(time.Second))
	if fatClk.Now() != wantFat {
		t.Fatalf("4-stream PutMulti charged %v, want %v", fatClk.Now(), wantFat)
	}
}

func TestDeleteBucket(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Put(&clk, "b", "k", []byte("v"))
	s.DeleteBucket("b")
	if _, err := s.Get(&clk, "b", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("bucket survived DeleteBucket")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := fastStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var clk vclock.Clock
			bucket := fmt.Sprintf("b%d", w)
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i)
				s.Put(&clk, bucket, key, []byte{byte(i)})
				v, err := s.Get(&clk, bucket, key)
				if err != nil || v[0] != byte(i) {
					t.Errorf("lost own write %s/%s", bucket, key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestGetRangeView(t *testing.T) {
	link := netmodel.Link{Latency: 10 * time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var clk vclock.Clock
	val := make([]byte, 1e6)
	for i := range val {
		val[i] = byte(i)
	}
	s.Put(&clk, "b", "k", val)

	var rClk vclock.Clock
	view, err := s.GetRangeView(&rClk, "b", "k", 1000, 500000)
	if err != nil {
		t.Fatal(err)
	}
	// A ranged read bills latency plus the range's transfer, not the
	// whole object's.
	want := 10*time.Millisecond + 500*time.Millisecond
	if rClk.Now() != want {
		t.Fatalf("range charged %v, want %v", rClk.Now(), want)
	}
	if len(view) != 500000 || view[0] != byte(1000%256) || view[len(view)-1] != byte((1000+499999)%256) {
		t.Fatalf("range window wrong: len=%d first=%d", len(view), view[0])
	}

	// The view is an immutable snapshot: a later Put replaces the stored
	// slice wholesale and must not mutate it.
	first := view[0]
	s.Put(&clk, "b", "k", make([]byte, 1e6))
	if view[0] != first {
		t.Fatal("Put mutated a retained range view")
	}

	var missClk vclock.Clock
	if _, err := s.GetRangeView(&missClk, "b", "missing", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing err = %v", err)
	}
	if missClk.Now() != 10*time.Millisecond {
		t.Fatalf("miss charged %v", missClk.Now())
	}
	for _, r := range [][2]int{{-1, 10}, {0, -1}, {999999, 2}, {0, 1000001}} {
		if _, err := s.GetRangeView(&clk, "b", "k", r[0], r[1]); err == nil {
			t.Errorf("range [%d,%d) accepted", r[0], r[0]+r[1])
		}
	}
}

func TestPeekViewUncharged(t *testing.T) {
	link := netmodel.Link{Latency: 10 * time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var clk vclock.Clock
	s.Put(&clk, "b", "k", []byte("shard-bytes"))
	before := s.Registry().Counter("obj.gets").Load()

	view, ok := s.PeekView("b", "k")
	if !ok || string(view) != "shard-bytes" {
		t.Fatalf("PeekView = %q, %v", view, ok)
	}
	// Peeks are simulator bookkeeping: no counters, no virtual time.
	if got := s.Registry().Counter("obj.gets").Load(); got != before {
		t.Fatalf("PeekView bumped obj.gets to %d", got)
	}
	if _, ok := s.PeekView("b", "missing"); ok {
		t.Fatal("PeekView found a missing object")
	}
}
