package exchange

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mlless/internal/sparse"
	"mlless/internal/vclock"
	"mlless/internal/xrand"
)

// pmfUpdates draws p significant updates shaped like pmf-bsp-tree's:
// nnz coordinates out of dim, as the ascending runs the worker step
// hands the exchange.
func pmfUpdates(p, dim, nnz int) []*sparse.Vector {
	r := xrand.New(29)
	out := make([]*sparse.Vector, p)
	for w := range out {
		out[w] = sparse.New()
		for out[w].Len() < nnz {
			out[w].Set(uint32(r.Intn(dim)), 0.01*r.NormFloat64())
		}
	}
	return out
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestPublishSteadyStateDoesNotAllocate pins the publish path at no
// payload allocation once every buffer has reached its high-water mark,
// under each expiry pattern the engine drives: BSP expires each step
// after its pull, an SSP window of 3 expires three steps at its sync
// point, and async at K = 3 expires step s-3 once step s completes. The
// parameter server encodes into one of the worker's expired buffers and
// allocates exactly one string per Publish, the update key the KV store
// maps. The tree encodes into the rank buffer and allocates nothing.
// Each step publishes different updates, and every key the parameter
// server still holds must keep its own step's bytes until it expires:
// a buffer reused before its Expire shows up there. Like
// testing.AllocsPerRun, the test compares truncated means: under churn
// the KV store's map itself grows now and then (2 allocations over the
// 2 400 publishes of the async case), which is not the publish path's.
func TestPublishSteadyStateDoesNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const p, dim, nnz, warm, steps = 8, 2000, 400, 30, 300
	sigs := pmfUpdates(p, dim, nnz)
	wire := make([][]byte, p)
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
		wire[i] = sigs[i].Encode()
	}
	for _, tc := range []struct {
		name, kind string
		// expire lists the steps whose keys expire once step is done.
		expire func(step int) []int
		// keyAllocs is what one Publish may allocate: its key string.
		keyAllocs uint64
	}{
		{"ps/bsp", KindParamServer, func(s int) []int { return []int{s} }, 1},
		{"ps/ssp3", KindParamServer, func(s int) []int {
			if s%3 != 0 {
				return nil
			}
			return []int{s - 2, s - 1, s}
		}, 1},
		{"ps/async3", KindParamServer, func(s int) []int {
			if s <= 3 {
				return nil
			}
			return []int{s - 3}
		}, 1},
		{"tree", KindTree, func(s int) []int { return []int{s} }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv(p, dim, 0)
			x, err := New(tc.kind, env)
			if err != nil {
				t.Fatal(err)
			}
			clocks := make([]vclock.Clock, p)
			var published uint64
			var live []int // published, not yet expired
			for s := 1; s <= warm+steps; s++ {
				n := mallocs(func() {
					for i := range ids {
						if _, err := x.Publish(&clocks[i], i, s, sigs[(i+s)%p], ids, nil); err != nil {
							t.Fatal(err)
						}
					}
				})
				live = append(live, s)
				for _, ls := range live {
					for i := range ids {
						if x.Collective() {
							break // the tree stores partial sums, not updates
						}
						got := env.KV.PeekViewsInto([]string{x.UpdateKey(ls, i)}, nil)[0]
						if !bytes.Equal(got, wire[(i+ls)%p]) {
							t.Fatalf("at step %d, the stored update of worker %d step %d changed", s, i, ls)
						}
					}
				}
				if x.Collective() {
					for r := 0; r < x.Rounds(p); r++ {
						for i := range ids {
							if err := x.RunRound(&clocks[i], i, s, r, ids, 0); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				var janitor vclock.Clock
				for _, e := range tc.expire(s) {
					x.Expire(&janitor, e, ids)
					live = slices.DeleteFunc(live, func(ls int) bool { return ls == e })
				}
				if s > warm { // the warm-up grows every buffer
					published += n
				}
			}
			if got := published / (p * steps); got != tc.keyAllocs {
				t.Errorf("Publish allocates %d times per call (%d over %d), want %d",
					got, published, p*steps, tc.keyAllocs)
			}
		})
	}
}

// BenchmarkPublish times one worker's Publish at P = 32 with
// pmf-bsp-tree's update shape (15 k of 72 k coordinates), for both
// strategies. Each completed step is expired outside the timer, as the
// lock-step barrier does, so the parameter server recycles its payload
// buffers; allocs/op is its key string, and 0 for the tree.
func BenchmarkPublish(b *testing.B) {
	const p, dim, nnz = 32, 72000, 15000
	sigs := pmfUpdates(p, dim, nnz)
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
	}
	for _, kind := range []string{KindParamServer, KindTree} {
		b.Run(fmt.Sprintf("%s/P=%d", kind, p), func(b *testing.B) {
			x, err := New(kind, testEnv(p, dim, 0))
			if err != nil {
				b.Fatal(err)
			}
			var clk vclock.Clock
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				i, s := n%p, n/p+1
				if _, err := x.Publish(&clk, i, s, sigs[i], ids, nil); err != nil {
					b.Fatal(err)
				}
				if i == p-1 {
					b.StopTimer()
					x.Expire(&clk, s, ids)
					b.StartTimer()
				}
			}
			b.SetBytes(int64(sparse.EncodedSizeFor(nnz)))
		})
	}
}
