package exchange

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
	if rng.Intn(8) == 0 {
		return encodeRaw(nil, nil)
	}
	var idx []uint32
	var vals []float64
	for i := 0; i < dim+8; i++ {
		if rng.Intn(3) != 0 {
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
	const dim, steps = 61, 6
	// minMerge 1 sends every window through the merged run, so each P is
	// checked on both sides of the crossover.
	for _, p := range []int{1, 2, 3, 8, 64} {
		for _, minMerge := range []int{mergeMinRuns, 1} {
			for _, sparseIDs := range []bool{false, true} {
				for _, concurrent := range []bool{false, true} {
					name := fmt.Sprintf("P=%d/minMerge=%d/evicted=%v/concurrent=%v", p, minMerge, sparseIDs, concurrent)
					t.Run(name, func(t *testing.T) {
						checkPullMatchesPerRun(t, p, minMerge, dim, steps, sparseIDs, concurrent)
					})
				}
			}
		}
	}
}

func checkPullMatchesPerRun(t *testing.T, p, minMerge, dim, steps int, sparseIDs, concurrent bool) {
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
			x.env.KV.Set(&clk, x.UpdateKey(s, id), hostileUpdate(rng, dim))
		}
	}
	pcs := make([]*PullCtx, p)
	for i, id := range ids {
		pcs[i] = &PullCtx{Worker: id, Clock: new(vclock.Clock), ActiveIDs: ids, Params: make(sparse.Dense, dim)}
	}
	check := func(what string, from, step int) {
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
	}
	check("BSP step 1", 0, 1)
	check("BSP step 2", 1, 2)
	check("SSP window (2,5]", 2, 5)
	// A payload replaced under a key already merged: the stale run must
	// not serve the replicas that read the new bytes.
	x.env.KV.Set(&clk, x.UpdateKey(5, ids[0]), hostileUpdate(rng, dim))
	check("SSP window after republish", 2, 5)
	check("BSP step 6", 5, 6)
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
	// Once the window is keyed (and, above the crossover, merged), a
	// replica's pull allocates nothing, on either side of the crossover.
	for _, p := range []int{4, 64} {
		x := newParamServer(testEnv(p, 200, 0))
		rng := rand.New(rand.NewSource(5))
		ids := make([]int, p)
		var clk vclock.Clock
		for i := range ids {
			ids[i] = i
			x.env.KV.Set(&clk, x.UpdateKey(1, i), hostileUpdate(rng, 200))
		}
		pcs := make([]*PullCtx, p)
		for i := range pcs {
			pcs[i] = &PullCtx{Worker: i, Clock: new(vclock.Clock), FromStep: 0, Step: 1, ActiveIDs: ids,
				Params: make(sparse.Dense, 200)}
		}
		if _, errs := pullAll(x, pcs, false); errs[0] != nil {
			t.Fatal(errs[0])
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := x.Pull(pcs[1]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("P=%d: steady-state pull allocates %.1f per call", p, allocs)
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

// BenchmarkParamServerPull times one lock-step sync point, every
// replica's pull run in turn on one goroutine, for the merged run and
// for the per-payload loop. Iterations alternate between two published
// windows, so each one keys and (merged) builds its window afresh.
func BenchmarkParamServerPull(b *testing.B) {
	const dim, nnz = 100_014, 939
	for _, p := range []int{2, 4, 8, 24, 64} {
		for _, kernel := range []string{"merged", "per-run"} {
			b.Run(fmt.Sprintf("P=%d/%s", p, kernel), func(b *testing.B) {
				x := newParamServer(testEnv(p, dim, 0))
				x.minMerge = 1
				if kernel == "per-run" {
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
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for _, pc := range pcs {
						pc.FromStep, pc.Step = n%2, n%2+1
						if _, err := x.Pull(pc); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*p), "us/worker-step")
			})
		}
	}
}
