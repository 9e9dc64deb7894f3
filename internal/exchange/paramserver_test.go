package exchange

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mlless/internal/sparse"
	"mlless/internal/vclock"
)

// encodeRaw writes the sparse wire layout directly, so a payload can
// carry what Vector.Encode never emits: exact zeros of either sign.
func encodeRaw(idx []uint32, vals []float64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(idx)))
	for k, i := range idx {
		buf = binary.LittleEndian.AppendUint32(buf, i)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vals[k]))
	}
	return buf
}

// hostileUpdate draws an ascending payload over [0, dim+8): some
// indices fall past a dim-sized replica, some values are ±0, and one
// draw in eight is empty.
func hostileUpdate(rng *rand.Rand, dim int) []byte {
	return drawUpdate(rng, dim, func(int) bool { return rng.Intn(3) == 0 })
}

// chunkSpan is the coordinate span of one chunk of sparse.MergedRun.
const chunkSpan = 1 << 11

// edgeUpdate is hostileUpdate over a model of many run chunks: indices
// crowd both sides of every chunk edge (k·2^11 − 1 and k·2^11) and are
// sparse in between.
func edgeUpdate(rng *rand.Rand, dim int) []byte {
	return drawUpdate(rng, dim, func(i int) bool {
		if off := i % chunkSpan; off < 2 || off >= chunkSpan-2 {
			return rng.Intn(2) == 0
		}
		return rng.Intn(40) == 0
	})
}

// drawUpdate draws an ascending payload over [0, dim+8) holding the
// indices keep picks, one in ten valued +0 and one in ten −0; one draw
// in eight is empty.
func drawUpdate(rng *rand.Rand, dim int, keep func(i int) bool) []byte {
	if rng.Intn(8) == 0 {
		return encodeRaw(nil, nil)
	}
	var idx []uint32
	var vals []float64
	for i := 0; i < dim+8; i++ {
		if !keep(i) {
			continue
		}
		v := rng.NormFloat64()
		switch rng.Intn(10) {
		case 0:
			v = 0
		case 1:
			v = math.Copysign(0, -1)
		}
		idx, vals = append(idx, uint32(i)), append(vals, v)
	}
	return encodeRaw(idx, vals)
}

// pullPerRun is the oracle: AddEncoded over each peer payload in turn,
// in the window's key order, with nothing shared between replicas.
func pullPerRun(t *testing.T, x *ParamServer, p *PullCtx) (sparse.Dense, int) {
	t.Helper()
	d := append(sparse.Dense(nil), p.Params...)
	applied := 0
	var clk vclock.Clock
	for _, id := range p.ActiveIDs {
		if id == p.Worker {
			continue
		}
		for s := p.FromStep + 1; s <= p.Step; s++ {
			buf, ok := x.env.KV.Get(&clk, x.UpdateKey(s, id))
			if !ok {
				t.Fatalf("oracle: missing %s", x.UpdateKey(s, id))
			}
			n, err := sparse.AddEncoded(d, buf)
			if err != nil {
				t.Fatal(err)
			}
			applied += n
		}
	}
	return d, applied
}

// pullAll runs one Pull per replica, on concurrent goroutines when
// concurrent is set, and returns each replica's result.
func pullAll(x *ParamServer, pcs []*PullCtx, concurrent bool) ([]int, []error) {
	applied, errs := make([]int, len(pcs)), make([]error, len(pcs))
	var wg sync.WaitGroup
	for i, pc := range pcs {
		pull := func() { applied[i], errs[i] = x.Pull(pc) }
		if !concurrent {
			pull()
			continue
		}
		wg.Add(1)
		go func() { defer wg.Done(); pull() }()
	}
	wg.Wait()
	return applied, errs
}

func sameBits(a, b sparse.Dense) int {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
			return d
		}
	}
	return -1
}

func TestParamServerPullMatchesPerRun(t *testing.T) {
	// A one-chunk model: minMerge 1 sends every window through the merged
	// run, so each P is checked on both sides of the crossover.
	const dim, steps = 61, 6
	for _, p := range []int{1, 2, 3, 8, 64} {
		for _, minMerge := range []int{mergeMinRuns, 1} {
			for _, sparseIDs := range []bool{false, true} {
				for _, concurrent := range []bool{false, true} {
					name := fmt.Sprintf("P=%d/minMerge=%d/evicted=%v/concurrent=%v", p, minMerge, sparseIDs, concurrent)
					t.Run(name, func(t *testing.T) {
						checkPullMatchesPerRun(t, p, minMerge, dim, steps, sparseIDs, concurrent, hostileUpdate)
					})
				}
			}
		}
	}
	// A model of 20 chunks and a bit, every window merged: indices on
	// both sides of every chunk edge and past the model, and, with the
	// pulls concurrent, replicas that arrive while others build chunks.
	// Run it under -cpu 1,2,4 to vary how the builds overlap.
	for _, p := range []int{2, 16} {
		for _, concurrent := range []bool{false, true} {
			t.Run(fmt.Sprintf("chunked/P=%d/concurrent=%v", p, concurrent), func(t *testing.T) {
				checkPullMatchesPerRun(t, p, 1, 20*chunkSpan+100, steps, false, concurrent, edgeUpdate)
			})
		}
	}
}

// checkPullMatchesPerRun publishes steps windows of draw's updates and
// checks each replica's pull against the per-run oracle, window by
// window, and that a window at or above minMerge peer payloads was
// merged unless one of its payloads does not ascend.
func checkPullMatchesPerRun(t *testing.T, p, minMerge, dim, steps int, sparseIDs, concurrent bool,
	draw func(*rand.Rand, int) []byte) {
	x := newParamServer(testEnv(3*p, dim, 0))
	x.minMerge = minMerge
	rng := rand.New(rand.NewSource(int64(p)))
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
		if sparseIDs {
			ids[i] = 3*i + 1 // non-contiguous, as after evictions
		}
	}
	var clk vclock.Clock
	for s := 1; s <= steps; s++ {
		for _, id := range ids {
			x.env.KV.Set(&clk, x.UpdateKey(s, id), draw(rng, dim))
		}
	}
	pcs := make([]*PullCtx, p)
	for i, id := range ids {
		pcs[i] = &PullCtx{Worker: id, Clock: new(vclock.Clock), ActiveIDs: ids, Params: make(sparse.Dense, dim)}
	}
	check := func(what string, from, step int, ordered bool) {
		t.Helper()
		wants, wantN := make([]sparse.Dense, p), make([]int, p)
		for i, pc := range pcs {
			for d := range pc.Params {
				pc.Params[d] = rng.NormFloat64()
			}
			pc.FromStep, pc.Step = from, step
			wants[i], wantN[i] = pullPerRun(t, x, pc)
		}
		applied, errs := pullAll(x, pcs, concurrent)
		for i, pc := range pcs {
			if errs[i] != nil {
				t.Fatalf("%s: replica %d: %v", what, pc.Worker, errs[i])
			}
			if applied[i] != wantN[i] {
				t.Fatalf("%s: replica %d applied %d, per-run %d", what, pc.Worker, applied[i], wantN[i])
			}
			if d := sameBits(pc.Params, wants[i]); d >= 0 {
				t.Fatalf("%s: replica %d coord %d = %x, per-run %x", what, pc.Worker, d,
					math.Float64bits(pc.Params[d]), math.Float64bits(wants[i][d]))
			}
		}
		if merge := (p-1)*(step-from) >= minMerge; merge && x.win.ok != ordered {
			t.Fatalf("%s: window merged = %v, want %v", what, x.win.ok, ordered)
		}
	}
	check("BSP step 1", 0, 1, true)
	check("BSP step 2", 1, 2, true)
	check("SSP window (2,5]", 2, 5, true)
	// A payload replaced under a key already merged: the stale run must
	// not serve the replicas that read the new bytes.
	x.env.KV.Set(&clk, x.UpdateKey(5, ids[0]), draw(rng, dim))
	check("SSP window after republish", 2, 5, true)
	check("BSP step 6", 5, 6, true)
	// A payload whose indices do not ascend leaves the window unmerged:
	// every replica applies its views.
	for _, id := range ids {
		x.env.KV.Set(&clk, x.UpdateKey(7, id), draw(rng, dim))
	}
	x.env.KV.Set(&clk, x.UpdateKey(7, ids[p-1]), encodeRaw([]uint32{uint32(dim - 1), 0}, []float64{1, 2}))
	check("BSP step 7, a payload out of order", 6, 7, false)
}

func TestParamServerPullMissingPeerKey(t *testing.T) {
	// One missing key in a 64-wide window: every replica that reads it
	// fails with the historical message; its owner never reads it and
	// succeeds, whether or not it is the replica that builds the run.
	const p, dim = 64, 40
	for _, owner := range []int{0, 37} {
		x := newParamServer(testEnv(p, dim, 0))
		rng := rand.New(rand.NewSource(9))
		ids := make([]int, p)
		var clk vclock.Clock
		for i := range ids {
			ids[i] = i
			x.env.KV.Set(&clk, x.UpdateKey(1, i), hostileUpdate(rng, dim))
		}
		x.env.KV.Delete(&clk, x.UpdateKey(1, owner))
		missing := x.UpdateKey(1, owner)
		for _, id := range ids {
			pc := &PullCtx{Worker: id, Clock: new(vclock.Clock), FromStep: 0, Step: 1, ActiveIDs: ids,
				Params: make(sparse.Dense, dim), Announced: []Announcement{{Step: 1, Worker: owner}}}
			var want sparse.Dense
			if id == owner {
				want, _ = pullPerRun(t, x, pc)
			}
			_, err := x.Pull(pc)
			if id != owner {
				if err == nil || err.Error() != fmt.Sprintf("missing peer update %s (announced: [%s])", missing, missing) {
					t.Fatalf("owner %d: replica %d err = %v", owner, id, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("owner %d: owner's pull failed: %v", owner, err)
			}
			if d := sameBits(pc.Params, want); d >= 0 {
				t.Fatalf("owner %d: coord %d differs from per-run", owner, d)
			}
		}
	}
}

func TestParamServerPullSteadyStateDoesNotAllocate(t *testing.T) {
	// Once the window is keyed (and, above the crossover, merged, at
	// P = 64 by concurrent pulls), a replica's pull allocates nothing, on
	// either side of the crossover. A sync point on a second window of the
	// same size allocates only the window's update keys: the run, its
	// chunk bounds and every replica's scratch are reused.
	const dim = 5*chunkSpan + 7
	for _, p := range []int{4, 64} {
		x := newParamServer(testEnv(p, dim, 0))
		rng := rand.New(rand.NewSource(5))
		ids := make([]int, p)
		var clk vclock.Clock
		for s := 1; s <= 2; s++ {
			for i := range ids {
				ids[i] = i
				x.env.KV.Set(&clk, x.UpdateKey(s, i), edgeUpdate(rng, dim))
			}
		}
		pcs := make([]*PullCtx, p)
		for i := range pcs {
			pcs[i] = &PullCtx{Worker: i, Clock: new(vclock.Clock), ActiveIDs: ids, Params: make(sparse.Dense, dim)}
		}
		syncPoint := func(step int, concurrent bool) {
			for _, pc := range pcs {
				pc.FromStep, pc.Step = step-1, step
			}
			if concurrent {
				if _, errs := pullAll(x, pcs, true); errors.Join(errs...) != nil {
					t.Fatal(errors.Join(errs...))
				}
				return
			}
			for _, pc := range pcs {
				if _, err := x.Pull(pc); err != nil {
					t.Fatal(err)
				}
			}
		}
		syncPoint(1, p == 64)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := x.Pull(pcs[1]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("P=%d: steady-state pull allocates %.1f per call", p, allocs)
		}
		syncPoint(2, false)
		step := 2
		allocs = testing.AllocsPerRun(10, func() {
			step = 3 - step
			syncPoint(step, false)
		})
		if allocs != float64(p) {
			t.Fatalf("P=%d: a sync point on a fresh window allocates %.1f, want its %d update keys", p, allocs, p)
		}
	}
}

// criteoUpdates draws p Zipf-skewed updates of about nnz coordinates
// over dim, the shape of lr-bsp-wide's significant updates (939 mean
// nnz over 100 014 coordinates).
func criteoUpdates(rng *rand.Rand, p, dim, nnz int) []*sparse.Vector {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(dim-1))
	out := make([]*sparse.Vector, p)
	for w := range out {
		v := sparse.New()
		for v.Len() < nnz {
			v.Set(uint32(zipf.Uint64()), rng.NormFloat64()*1e-3)
		}
		out[w] = v
	}
	return out
}

// BenchmarkParamServerPull times one lock-step sync point for the
// merged run and for the per-payload loop: every replica's pull run in
// turn on one goroutine, and (…/concurrent) the replicas shared out
// over GOMAXPROCS goroutines, the parallel driver's shape, where
// replicas build the run together. Iterations alternate between two
// published windows, so each one keys and (merged) builds its window
// afresh.
func BenchmarkParamServerPull(b *testing.B) {
	const dim, nnz = 100_014, 939
	for _, p := range []int{2, 4, 8, 16, 24, 64} {
		for _, kernel := range []string{"merged", "per-run", "merged/concurrent", "per-run/concurrent"} {
			b.Run(fmt.Sprintf("P=%d/%s", p, kernel), func(b *testing.B) {
				x := newParamServer(testEnv(p, dim, 0))
				x.minMerge = 1
				if strings.HasPrefix(kernel, "per-run") {
					x.minMerge = math.MaxInt
				}
				rng := rand.New(rand.NewSource(1))
				ids := make([]int, p)
				var clk vclock.Clock
				for s := 1; s <= 2; s++ {
					for i, sig := range criteoUpdates(rng, p, dim, nnz) {
						ids[i] = i
						x.Publish(&clk, i, s, sig, nil, nil)
					}
				}
				pcs := make([]*PullCtx, p)
				for i := range pcs {
					pcs[i] = &PullCtx{Worker: i, Clock: new(vclock.Clock), ActiveIDs: ids, Params: make(sparse.Dense, dim)}
				}
				g := 1
				if strings.HasSuffix(kernel, "concurrent") {
					g = runtime.GOMAXPROCS(0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					var wg sync.WaitGroup
					for k := 0; k < g; k++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for _, pc := range pcs[k*p/g : (k+1)*p/g] {
								pc.FromStep, pc.Step = n%2, n%2+1
								if _, err := x.Pull(pc); err != nil {
									b.Error(err)
								}
							}
						}()
					}
					wg.Wait()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*p), "us/worker-step")
			})
		}
	}
}
