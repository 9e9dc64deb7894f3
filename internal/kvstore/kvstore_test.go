package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mlless/internal/faults"
	"mlless/internal/netmodel"
	"mlless/internal/vclock"
)

func fastStore() *Store { return New(netmodel.Link{}) }

func TestSetGet(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "a", []byte("hello"))
	got, ok := s.Get(&clk, "a")
	if !ok || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestGetMissing(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	if _, ok := s.Get(&clk, "nope"); ok {
		t.Fatal("missing key reported present")
	}
	if n := s.Registry().Counter("kv.misses").Load(); n != 1 {
		t.Fatalf("misses = %d", n)
	}
}

// TestValueCopiedAtBoundary pins the read side of the ownership rule:
// Get returns a copy, so a caller mutating it cannot reach the store.
// (Set keeps the caller's slice; see TestSetKeepsCallerSlice.)
func TestValueCopiedAtBoundary(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "k", []byte("abc"))
	got, _ := s.Get(&clk, "k")
	if string(got) != "abc" {
		t.Fatalf("Get = %q", got)
	}
	got[0] = 'Y' // caller mutates returned buffer
	again, _ := s.Get(&clk, "k")
	if string(again) != "abc" {
		t.Fatal("Get returned aliased internal buffer")
	}
}

func TestDelete(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "k", []byte("v"))
	s.Delete(&clk, "k")
	if _, ok := s.Get(&clk, "k"); ok {
		t.Fatal("key survived Delete")
	}
}

func TestKeysPrefixSorted(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	for _, k := range []string{"u/3", "u/1", "v/9", "u/2"} {
		s.Set(&clk, k, []byte("x"))
	}
	got := s.Keys(&clk, "u/")
	want := []string{"u/1", "u/2", "u/3"}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestMGet(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "a", []byte("1"))
	s.Set(&clk, "c", []byte("3"))
	got := s.MGet(&clk, []string{"a", "b", "c"})
	if string(got[0]) != "1" || got[1] != nil || string(got[2]) != "3" {
		t.Fatalf("MGet = %v", got)
	}
}

func TestClockCharging(t *testing.T) {
	link := netmodel.Link{Latency: time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var clk vclock.Clock
	payload := make([]byte, 1e6) // 1 second at 1 MB/s
	s.Set(&clk, "k", payload)
	want := time.Millisecond + time.Second
	if clk.Now() != want {
		t.Fatalf("Set charged %v, want %v", clk.Now(), want)
	}
	before := clk.Now()
	s.Get(&clk, "k")
	if clk.Now()-before != want {
		t.Fatalf("Get charged %v, want %v", clk.Now()-before, want)
	}
}

func TestMGetPipelinesLatency(t *testing.T) {
	link := netmodel.Link{Latency: time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var setClk vclock.Clock
	for i := 0; i < 10; i++ {
		s.Set(&setClk, fmt.Sprintf("k%d", i), make([]byte, 1000))
	}
	var clk vclock.Clock
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	s.MGet(&clk, keys)
	// One latency + 10 KB at 1 MB/s = 1 ms + 10 ms.
	want := time.Millisecond + 10*time.Millisecond
	if clk.Now() != want {
		t.Fatalf("MGet charged %v, want %v", clk.Now(), want)
	}
}

func TestMissChargesRTT(t *testing.T) {
	link := netmodel.Link{Latency: 2 * time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var clk vclock.Clock
	s.Get(&clk, "missing")
	if clk.Now() != 2*time.Millisecond {
		t.Fatalf("miss charged %v", clk.Now())
	}
}

func TestMetrics(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "a", []byte("12345"))
	s.Get(&clk, "a")
	s.Get(&clk, "b")
	s.Delete(&clk, "a")
	reg := s.Registry()
	load := func(name string) int64 { return reg.Counter(name).Load() }
	if load("kv.sets") != 1 || load("kv.gets") != 2 || load("kv.deletes") != 1 || load("kv.misses") != 1 {
		t.Fatalf("counters: sets=%d gets=%d deletes=%d misses=%d",
			load("kv.sets"), load("kv.gets"), load("kv.deletes"), load("kv.misses"))
	}
	if load("kv.bytes_written") != 5 || load("kv.bytes_read") != 5 {
		t.Fatalf("byte counters: written=%d read=%d", load("kv.bytes_written"), load("kv.bytes_read"))
	}
}

func TestFlush(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "a", []byte("x"))
	s.Flush()
	if s.Len() != 0 {
		t.Fatal("Flush left keys")
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
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d/%d", w, i)
				s.Set(&clk, key, []byte{byte(i)})
				if v, ok := s.Get(&clk, key); !ok || v[0] != byte(i) {
					t.Errorf("lost own write %s", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestMGetViewSharesBuffers(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "a", []byte("abc"))
	s.Set(&clk, "b", []byte("de"))
	views := s.MGetView(&clk, []string{"a", "missing", "b"})
	if string(views[0]) != "abc" || views[1] != nil || string(views[2]) != "de" {
		t.Fatalf("MGetView = %q", views)
	}
	// Overwriting a key must not disturb a previously returned view
	// (stored values are immutable; Set replaces wholesale).
	s.Set(&clk, "a", []byte("xyz"))
	if string(views[0]) != "abc" {
		t.Fatal("view mutated by a later Set")
	}
}

func TestMGetViewChargesLikeMGet(t *testing.T) {
	link := netmodel.Link{Latency: time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var setClk vclock.Clock
	s.Set(&setClk, "k", make([]byte, 5000))
	var a, b vclock.Clock
	s.MGet(&a, []string{"k"})
	s.MGetView(&b, []string{"k"})
	if a.Now() != b.Now() {
		t.Fatalf("charging differs: MGet %v, MGetView %v", a.Now(), b.Now())
	}
}

// --- fault injection ---

func TestFaultSlowOpMultipliesCharge(t *testing.T) {
	link := netmodel.RedisLink()
	clean := New(link)
	faulty := New(link)
	faulty.SetFaults(faults.New(faults.Spec{Seed: 1, KVSlowProb: 1, KVSlowFactor: 4}))
	val := make([]byte, 1<<16)
	var a, b vclock.Clock
	clean.Set(&a, "k", val)
	faulty.Set(&b, "k", val)
	// A spike multiplies the operation's nominal charge by the factor.
	if want := 4 * a.Now(); b.Now() != want {
		t.Fatalf("slow Set charged %v, want %v (clean %v)", b.Now(), want, a.Now())
	}
}

func TestFaultFailedOpsCostRetries(t *testing.T) {
	link := netmodel.RedisLink()
	in := faults.New(faults.Spec{Seed: 1, KVFailProb: 1})
	s := New(link)
	s.SetFaults(in)
	val := make([]byte, 4096)
	var clk vclock.Clock
	s.Set(&clk, "k", val)
	base := link.TransferTime(len(val))
	// Probability 1 exhausts the retry budget: 5 failed attempts, each
	// costing the client timeout plus a re-execution, then the success.
	want := base + 5*(faults.DefaultRetryPenalty+base)
	if clk.Now() != want {
		t.Fatalf("failed Set charged %v, want %v", clk.Now(), want)
	}
	if m := in.Metrics(); m.KVFailures != 5 {
		t.Fatalf("KVFailures = %d, want 5", m.KVFailures)
	}
	// Failures are retried client-side; the data still lands.
	if _, ok := s.Get(&clk, "k"); !ok {
		t.Fatal("value lost to injected failures")
	}
}

func TestFaultRemovedWithNil(t *testing.T) {
	link := netmodel.RedisLink()
	s := New(link)
	s.SetFaults(faults.New(faults.Spec{Seed: 1, KVSlowProb: 1}))
	s.SetFaults(nil)
	var clk vclock.Clock
	val := make([]byte, 4096)
	s.Set(&clk, "k", val)
	if clk.Now() != link.TransferTime(len(val)) {
		t.Fatalf("removed injector still charged: %v", clk.Now())
	}
}

// --- ownership ---

// TestSetKeepsCallerSlice pins the write side of the ownership rule:
// Set stores the caller's slice itself, not a copy, and a view retained
// from the store survives an overwrite and a Delete of its key, because
// both replace or drop the map entry and never write stored bytes.
func TestSetKeepsCallerSlice(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	buf := []byte("step-1-update")
	s.Set(&clk, "upd", buf)
	view := s.MGetView(&clk, []string{"upd"})[0]
	if &view[0] != &buf[0] || len(view) != len(buf) {
		t.Fatal("Set stored a copy, want the caller's slice")
	}
	if peek := s.PeekViewsInto([]string{"upd"}, nil)[0]; &peek[0] != &buf[0] {
		t.Fatal("PeekViewsInto does not see the caller's slice")
	}

	s.Set(&clk, "upd", []byte("step-2-update"))
	if string(view) != "step-1-update" {
		t.Fatalf("overwrite mutated a retained view: %q", view)
	}
	if got := s.MGetView(&clk, []string{"upd"})[0]; string(got) != "step-2-update" {
		t.Fatalf("after overwrite MGetView = %q", got)
	}
	s.Delete(&clk, "upd")
	if string(view) != "step-1-update" {
		t.Fatalf("Delete mutated a retained view: %q", view)
	}
}

func TestMGetViewIntoReusesAndResets(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "a", []byte("abc"))
	s.Set(&clk, "b", []byte("de"))
	out := s.MGetViewInto(&clk, []string{"a", "b"}, nil)
	if string(out[0]) != "abc" || string(out[1]) != "de" {
		t.Fatalf("first MGetViewInto = %q", out)
	}
	// Second call reuses the slice; a now-missing key must come back
	// nil, not a stale view from the previous call.
	out2 := s.MGetViewInto(&clk, []string{"missing", "b"}, out)
	if &out2[0] != &out[0] {
		t.Fatal("MGetViewInto did not reuse the caller's slice")
	}
	if out2[0] != nil || string(out2[1]) != "de" {
		t.Fatalf("second MGetViewInto = %q", out2)
	}
	// Growing past capacity reallocates but still serves correctly.
	out3 := s.MGetViewInto(&clk, []string{"a", "b", "missing"}, out2[:0])
	if string(out3[0]) != "abc" || string(out3[1]) != "de" || out3[2] != nil {
		t.Fatalf("grown MGetViewInto = %q", out3)
	}
}

func TestMGetViewIntoChargesLikeMGetView(t *testing.T) {
	link := netmodel.Link{Latency: time.Millisecond, BandwidthBps: 1e6}
	s := New(link)
	var setClk vclock.Clock
	s.Set(&setClk, "k", make([]byte, 5000))
	var a, b vclock.Clock
	s.MGetView(&a, []string{"k", "missing"})
	scratch := make([][]byte, 0, 2)
	s.MGetViewInto(&b, []string{"k", "missing"}, scratch)
	if a.Now() != b.Now() {
		t.Fatalf("charging differs: MGetView %v, MGetViewInto %v", a.Now(), b.Now())
	}
}

func TestPeekViewsIntoIsFree(t *testing.T) {
	s := fastStore()
	var clk vclock.Clock
	s.Set(&clk, "a", []byte("abc"))
	reg := s.Registry()
	before := reg.Counter("kv.gets").Load() + reg.Counter("kv.misses").Load() + reg.Counter("kv.bytes_read").Load()
	peek := s.PeekViewsInto([]string{"a", "missing"}, nil)
	if after := reg.Counter("kv.gets").Load() + reg.Counter("kv.misses").Load() + reg.Counter("kv.bytes_read").Load(); after != before {
		t.Fatalf("peek moved the read counters: %d -> %d", before, after)
	}
	// The peek returns the very buffers a charged view read returns.
	view := s.MGetView(&clk, []string{"a", "missing"})
	if &peek[0][0] != &view[0][0] || peek[1] != nil {
		t.Fatalf("peek = %q, want the charged views %q", peek, view)
	}
}
