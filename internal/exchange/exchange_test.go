package exchange

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mlless/internal/cost"
	"mlless/internal/kvstore"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

func testEnv(workers, dim, fanout int) Env {
	reg := trace.NewRegistry()
	return Env{
		KV:      kvstore.NewWithRegistry(netmodel.Link{}, reg),
		Obj:     objstore.NewWithRegistry(netmodel.Link{}, reg),
		Reg:     reg,
		NS:      "job0",
		Bucket:  "xchg-job0",
		Dim:     dim,
		Workers: workers,
		Fanout:  fanout,
		Charge:  func(*vclock.Clock, int, float64) {},
	}
}

func TestValidate(t *testing.T) {
	for _, kind := range []string{KindParamServer, KindScatter, KindTree} {
		if err := Validate(kind, 0); err != nil {
			t.Fatalf("Validate(%q, 0) = %v", kind, err)
		}
	}
	if err := Validate("ring", 0); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind err = %v", err)
	}
	if err := Validate(KindTree, 1); !errors.Is(err, ErrBadFanout) {
		t.Fatalf("fanout 1 err = %v", err)
	}
	if err := Validate(KindTree, -3); !errors.Is(err, ErrBadFanout) {
		t.Fatalf("negative fanout err = %v", err)
	}
	if err := Validate(KindTree, 2); err != nil {
		t.Fatalf("fanout 2 err = %v", err)
	}
	// Non-tree strategies ignore the fan-out entirely.
	if err := Validate(KindScatter, 1); err != nil {
		t.Fatalf("scatter with stray fanout err = %v", err)
	}
}

func TestIsCollective(t *testing.T) {
	if IsCollective(KindParamServer) || IsCollective("") || IsCollective("ring") {
		t.Fatal("non-collective kind reported collective")
	}
	if !IsCollective(KindScatter) || !IsCollective(KindTree) {
		t.Fatal("collective kind not reported")
	}
}

func TestUpdateKeyLayout(t *testing.T) {
	for _, kind := range []string{KindParamServer, KindScatter, KindTree} {
		x, err := New(kind, testEnv(2, 10, 0))
		if err != nil {
			t.Fatal(err)
		}
		if got := x.UpdateKey(7, 3); got != "job0/upd/7/3" {
			t.Fatalf("%s UpdateKey = %q", kind, got)
		}
	}
}

func TestAnnouncedSet(t *testing.T) {
	if got := AnnouncedSet(nil); got != "none" {
		t.Fatalf("empty = %q", got)
	}
	got := AnnouncedSet(map[string]bool{"b": true, "a": true})
	if got != "[a b]" {
		t.Fatalf("sorted = %q", got)
	}
}

// randomSigs builds deterministic pseudo-random significant updates,
// overlapping enough that reductions actually sum coordinates.
func randomSigs(p, dim, nnz int, seed int64) []*sparse.Vector {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]*sparse.Vector, p)
	for w := range sigs {
		v := sparse.New()
		for k := 0; k < nnz; k++ {
			v.Set(uint32(rng.Intn(dim)), rng.NormFloat64())
		}
		sigs[w] = v
	}
	return sigs
}

// runCollectiveStep drives one full exchange step the way the engine
// does — publish all, run every round with a barrier between rounds,
// pull all — and returns each worker's resulting dense replica delta.
func runCollectiveStep(t *testing.T, x Exchange, ids []int, dim int, sigs []*sparse.Vector) []sparse.Dense {
	t.Helper()
	p := len(ids)
	clocks := make([]vclock.Clock, p)
	for i, id := range ids {
		if _, err := x.Publish(&clocks[i], id, 1, sigs[i], ids, nil); err != nil {
			t.Fatalf("publish %d: %v", id, err)
		}
	}
	maxNow := func() time.Duration {
		var m time.Duration
		for i := range clocks {
			if now := clocks[i].Now(); now > m {
				m = now
			}
		}
		return m
	}
	for r := 0; r < x.Rounds(p); r++ {
		readyAt := maxNow()
		for i, id := range ids {
			if err := x.RunRound(&clocks[i], id, 1, r, ids, readyAt); err != nil {
				t.Fatalf("round %d worker %d: %v", r, id, err)
			}
		}
	}
	readyAt := maxNow()
	out := make([]sparse.Dense, p)
	for i, id := range ids {
		out[i] = make(sparse.Dense, dim)
		pc := &PullCtx{
			Worker: id, Clock: &clocks[i], FromStep: 0, Step: 1,
			ActiveIDs: ids, Params: out[i], OwnSig: sigs[i], ReadyAt: readyAt,
		}
		if _, err := x.Pull(pc); err != nil {
			t.Fatalf("pull %d: %v", id, err)
		}
	}
	return out
}

// wantDelta returns what worker i's replica must gain from the
// exchange: the sum of every peer's update (its own was already applied
// at compute time, so the exchange must contribute exactly the rest).
func wantDelta(i, dim int, sigs []*sparse.Vector) sparse.Dense {
	want := make(sparse.Dense, dim)
	for j, sig := range sigs {
		if j != i {
			want.AddSparse(sig)
		}
	}
	return want
}

func TestCollectivesReduceToPeerSum(t *testing.T) {
	const dim = 97
	for _, tc := range []struct {
		kind   string
		p      int
		fanout int
	}{
		{KindScatter, 1, 0}, {KindScatter, 2, 0}, {KindScatter, 5, 0},
		{KindTree, 2, 2}, {KindTree, 5, 2}, {KindTree, 7, 3}, {KindTree, 9, 0},
	} {
		name := fmt.Sprintf("%s-p%d-f%d", tc.kind, tc.p, tc.fanout)
		x, err := New(tc.kind, testEnv(tc.p, dim, tc.fanout))
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, tc.p)
		for i := range ids {
			ids[i] = i
		}
		sigs := randomSigs(tc.p, dim, 40, 42)
		got := runCollectiveStep(t, x, ids, dim, sigs)
		for i := range got {
			want := wantDelta(i, dim, sigs)
			for d := 0; d < dim; d++ {
				if diff := got[i][d] - want[d]; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("%s: worker %d coord %d = %g, want %g", name, i, d, got[i][d], want[d])
				}
			}
		}
	}
}

func TestCollectivesHandleSparseActiveIDs(t *testing.T) {
	// After evictions the active ids are a non-contiguous subset; ranks
	// come from positions, not ids.
	const dim = 53
	ids := []int{0, 2, 5}
	sigs := randomSigs(len(ids), dim, 25, 7)
	for _, kind := range []string{KindScatter, KindTree} {
		x, err := New(kind, testEnv(6, dim, 2))
		if err != nil {
			t.Fatal(err)
		}
		got := runCollectiveStep(t, x, ids, dim, sigs)
		for i := range got {
			want := wantDelta(i, dim, sigs)
			for d := 0; d < dim; d++ {
				if diff := got[i][d] - want[d]; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("%s: worker %d coord %d = %g, want %g", kind, ids[i], d, got[i][d], want[d])
				}
			}
		}
	}
}

func TestScatterMatchesWideTreeBitwise(t *testing.T) {
	// A tree whose fan-out covers the whole pool folds every update at
	// the root in rank order — the same per-coordinate addition order as
	// the scatter chunks. The two strategies must agree bit for bit.
	const dim, p = 211, 6
	ids := []int{0, 1, 2, 3, 4, 5}
	sigs := randomSigs(p, dim, 90, 99)
	sc, err := New(KindScatter, testEnv(p, dim, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(KindTree, testEnv(p, dim, p))
	if err != nil {
		t.Fatal(err)
	}
	a := runCollectiveStep(t, sc, ids, dim, sigs)
	b := runCollectiveStep(t, tr, ids, dim, sigs)
	for i := range a {
		for d := 0; d < dim; d++ {
			if a[i][d] != b[i][d] {
				t.Fatalf("worker %d coord %d: scatter %x, tree %x", i, d, a[i][d], b[i][d])
			}
		}
	}
}

func TestTreeRoundStructure(t *testing.T) {
	// p=5, fanout=2 → 3 levels, 6 rounds; the per-step object set is
	// every non-root upload plus the root total.
	env := testEnv(5, 60, 2)
	x, err := New(KindTree, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Rounds(5); got != 6 {
		t.Fatalf("Rounds(5) = %d", got)
	}
	ids := []int{0, 1, 2, 3, 4}
	sigs := randomSigs(5, 60, 20, 3)
	runCollectiveStep(t, x, ids, 60, sigs)
	var clk vclock.Clock
	keys := env.Obj.List(&clk, env.Bucket, "s1/")
	// Members: level 0 = {1,3}, level 1 = {2}, level 2 = {4}; plus root.
	want := []string{"s1/l0/1", "s1/l0/3", "s1/l1/2", "s1/l2/4", "s1/root"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("objects = %v, want %v", keys, want)
	}
}

func TestExpireDropsStepObjects(t *testing.T) {
	env := testEnv(4, 40, 0)
	x, err := New(KindScatter, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	sigs := randomSigs(4, 40, 15, 5)
	runCollectiveStep(t, x, ids, 40, sigs)
	var clk vclock.Clock
	if got := env.Obj.List(&clk, env.Bucket, "s1/"); len(got) == 0 {
		t.Fatal("step left no objects to expire")
	}
	var janitor vclock.Clock
	x.Expire(&janitor, 1, ids)
	if got := env.Obj.List(&clk, env.Bucket, "s1/"); len(got) != 0 {
		t.Fatalf("objects survived Expire: %v", got)
	}
}

func TestParamServerRoundTrip(t *testing.T) {
	env := testEnv(3, 30, 0)
	x, err := New(KindParamServer, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2}
	sigs := randomSigs(3, 30, 10, 11)
	var clk vclock.Clock
	for i, id := range ids {
		if _, err := x.Publish(&clk, id, 1, sigs[i], nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	params := make(sparse.Dense, 30)
	pc := &PullCtx{Worker: 0, Clock: &clk, FromStep: 0, Step: 1, ActiveIDs: ids, Params: params}
	applied, err := x.Pull(pc)
	if err != nil {
		t.Fatal(err)
	}
	if applied != sigs[1].Len()+sigs[2].Len() {
		t.Fatalf("applied = %d", applied)
	}
	want := wantDelta(0, 30, sigs)
	for d := range want {
		if params[d] != want[d] {
			t.Fatalf("coord %d = %g, want %g", d, params[d], want[d])
		}
	}

	// Expiry deletes the published keys; the pull then reports the
	// missing key with the announced set, exactly the engine's historical
	// diagnostic.
	var janitor vclock.Clock
	x.Expire(&janitor, 1, ids)
	pc.Announced = map[string]bool{"job0/upd/1/1": true}
	if _, err := x.Pull(pc); err == nil ||
		err.Error() != "missing peer update job0/upd/1/1 (announced: [job0/upd/1/1])" {
		t.Fatalf("missing-update err = %v", err)
	}
}

func TestCollectiveBilling(t *testing.T) {
	env := testEnv(4, 40, 0)
	x, err := New(KindScatter, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	sigs := randomSigs(4, 40, 15, 13)
	runCollectiveStep(t, x, ids, 40, sigs)
	var m cost.Meter
	x.BillInto(&m)
	rep := m.Report()
	if len(rep.Components) != 2 {
		t.Fatalf("bill = %+v", rep)
	}
	// Per step: 4 workers × 3 contribution puts + 4 reduced puts = 16
	// class A; 4×3 contribution gets + 4×3 reduced gets = 24 class B.
	wantA := 16 * cost.PriceCOSClassARequest
	wantB := 24 * cost.PriceCOSClassBRequest
	if got := rep.Total; got != wantA+wantB {
		t.Fatalf("total = %g, want %g", got, wantA+wantB)
	}

	var psm cost.Meter
	ps, _ := New(KindParamServer, testEnv(2, 10, 0))
	ps.BillInto(&psm)
	if psm.Total() != 0 {
		t.Fatal("parameter server billed requests")
	}
}

func TestTreeChargesSlowerLinkMoreRounds(t *testing.T) {
	// With a real COS link, a deeper tree (smaller fan-out) pays more
	// serial round trips: the pool-wide finish time must grow.
	finish := func(fanout int) time.Duration {
		reg := trace.NewRegistry()
		env := testEnv(8, 500, fanout)
		env.Obj = objstore.NewWithRegistry(netmodel.COSLink(), reg)
		x, err := New(KindTree, env)
		if err != nil {
			t.Fatal(err)
		}
		ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
		sigs := randomSigs(8, 500, 100, 21)
		clocks := make([]vclock.Clock, 8)
		for i, id := range ids {
			if _, err := x.Publish(&clocks[i], id, 1, sigs[i], ids, nil); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < x.Rounds(8); r++ {
			var readyAt time.Duration
			for i := range clocks {
				if now := clocks[i].Now(); now > readyAt {
					readyAt = now
				}
			}
			for i, id := range ids {
				if err := x.RunRound(&clocks[i], id, 1, r, ids, readyAt); err != nil {
					t.Fatal(err)
				}
			}
		}
		var max time.Duration
		for i := range clocks {
			if now := clocks[i].Now(); now > max {
				max = now
			}
		}
		return max
	}
	if f2, f8 := finish(2), finish(8); f2 <= f8 {
		t.Fatalf("fanout 2 finished at %v, not slower than fanout 8 at %v", f2, f8)
	}
}
