package exchange

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	for _, kind := range []string{KindParamServer, KindTree} {
		if err := Validate(kind, 0); err != nil {
			t.Fatalf("Validate(%q, 0) = %v", kind, err)
		}
	}
	for _, kind := range []string{"ring", "scatter"} {
		if err := Validate(kind, 0); !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("Validate(%q, 0) = %v, want ErrUnknownKind", kind, err)
		}
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
	// The parameter server ignores the fan-out entirely.
	if err := Validate(KindParamServer, 1); err != nil {
		t.Fatalf("ps with stray fanout err = %v", err)
	}
}

func TestUpdateKeyLayout(t *testing.T) {
	for _, kind := range []string{KindParamServer, KindTree} {
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
	key := func(step, worker int) string { return fmt.Sprintf("%d/%d", step, worker) }
	if got := AnnouncedSet(key, nil); got != "none" {
		t.Fatalf("empty = %q", got)
	}
	got := AnnouncedSet(key, []Announcement{{Step: 2, Worker: 1}, {Step: 1, Worker: 3}, {Step: 2, Worker: 1}})
	if got != "[1/3 2/1]" {
		t.Fatalf("sorted and deduplicated = %q", got)
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

// cancellingSigs builds overlapping updates over a small index range
// whose values are drawn from a set that cancels to exact zero (±1,
// ±0.5) and sums order-sensitively (0.1, 0.2, -0.3), with a normal draw
// in between: every fold order difference changes bits somewhere.
func cancellingSigs(p, dim, nnz int, seed int64) []*sparse.Vector {
	vals := []float64{1, -1, 0.5, -0.5, 0.1, 0.2, -0.3}
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]*sparse.Vector, p)
	for w := range sigs {
		v := sparse.New()
		for k := 0; k < nnz; k++ {
			val := rng.NormFloat64()
			if rng.Intn(4) != 0 {
				val = vals[rng.Intn(len(vals))]
			}
			v.Set(uint32(rng.Intn(dim)), val)
		}
		sigs[w] = v
	}
	return sigs
}

// vectorTreeFold is the tree's reference fold: a Vector accumulator per
// rank seeded with the rank's update, each level's member uploads
// encoded with EncodeTo and folded into their leader with
// AddEncodedSparse in level and rank order, the root total encoded once
// more. It returns every object the tree writes for step
// 1 by key and each rank's replica delta after the pull.
func vectorTreeFold(t *testing.T, sigs []*sparse.Vector, fanout, dim int) (map[string][]byte, []sparse.Dense) {
	t.Helper()
	p := len(sigs)
	acc := make([]*sparse.Vector, p)
	for i, sig := range sigs {
		acc[i] = sig.Clone()
	}
	objs := make(map[string][]byte)
	for lvl, stride := 0, 1; stride < p; lvl, stride = lvl+1, stride*fanout {
		for pos := 0; pos < p; pos += stride * fanout {
			for child := pos + stride; child < p && child < pos+stride*fanout; child += stride {
				buf := acc[child].EncodeTo(nil)
				objs[levelKey(1, lvl, child)] = buf
				if _, err := sparse.AddEncodedSparse(acc[pos], buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	root := acc[0].EncodeTo(nil)
	objs[rootKey(1)] = root
	replicas := make([]sparse.Dense, p)
	for i := range replicas {
		d := make(sparse.Dense, dim)
		if i == 0 {
			d.AddSparse(acc[0])
		} else if _, err := sparse.AddEncoded(d, root); err != nil {
			t.Fatal(err)
		}
		d.AddScaledSparse(sigs[i], -1)
		replicas[i] = d
	}
	return objs, replicas
}

func TestCollectivesReduceToPeerSum(t *testing.T) {
	// Every case must land each replica within rounding of the peer sum.
	// The cases over {2, 3, 5, 16, 17, 32} ranks, non-contiguous ids and
	// fan-outs from 2 to the whole pool must also match the Vector fold
	// bit for bit: every object the tree writes, byte for byte, and
	// every replica after the pull.
	const dim = 97
	type collectiveCase struct {
		p      int
		fanout int
		pinned bool // ids 1, 3, 5, …, cancelling values, Vector-fold oracle
	}
	cases := []collectiveCase{{1, 0, false}, {2, 2, false}, {5, 2, false}, {7, 3, false}, {9, 0, false}}
	for _, p := range []int{2, 3, 5, 16, 17, 32} {
		for _, fanout := range []int{2, 3, 4, p} {
			cases = append(cases, collectiveCase{p, fanout, true})
		}
	}
	for _, tc := range cases {
		name := fmt.Sprintf("tree-p%d-f%d", tc.p, tc.fanout)
		ids := make([]int, tc.p)
		for i := range ids {
			ids[i] = i
			if tc.pinned {
				ids[i] = 2*i + 1
			}
		}
		env := testEnv(2*tc.p+1, dim, tc.fanout)
		x, err := New(KindTree, env)
		if err != nil {
			t.Fatal(err)
		}
		sigs := randomSigs(tc.p, dim, 40, 42)
		if tc.pinned {
			sigs = cancellingSigs(tc.p, dim, 40, int64(tc.p*10+tc.fanout))
		}
		got := runCollectiveStep(t, x, ids, dim, sigs)
		for i := range got {
			want := wantDelta(i, dim, sigs)
			for d := 0; d < dim; d++ {
				if diff := got[i][d] - want[d]; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("%s: worker %d coord %d = %g, want %g", name, i, d, got[i][d], want[d])
				}
			}
		}
		if !tc.pinned {
			continue
		}
		wantObjs, wantReplicas := vectorTreeFold(t, sigs, tc.fanout, dim)
		var clk vclock.Clock
		keys := env.Obj.List(&clk, env.Bucket, "s1/")
		if len(keys) != len(wantObjs) {
			t.Fatalf("%s: tree wrote %d objects, Vector fold %d", name, len(keys), len(wantObjs))
		}
		for _, k := range keys {
			buf, ok := env.Obj.PeekView(env.Bucket, k)
			if want, found := wantObjs[k]; !ok || !found || !bytes.Equal(buf, want) {
				t.Fatalf("%s: object %s (%d bytes) differs from the Vector fold's (%d bytes)", name, k, len(buf), len(want))
			}
		}
		for i := range got {
			for d := 0; d < dim; d++ {
				if math.Float64bits(got[i][d]) != math.Float64bits(wantReplicas[i][d]) {
					t.Fatalf("%s: worker %d coord %d = %x, Vector fold %x", name, ids[i], d,
						math.Float64bits(got[i][d]), math.Float64bits(wantReplicas[i][d]))
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
	x, err := New(KindTree, testEnv(6, dim, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := runCollectiveStep(t, x, ids, dim, sigs)
	for i := range got {
		want := wantDelta(i, dim, sigs)
		for d := 0; d < dim; d++ {
			if diff := got[i][d] - want[d]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("worker %d coord %d = %g, want %g", ids[i], d, got[i][d], want[d])
			}
		}
	}
}

func TestTreeStepAllocsBounded(t *testing.T) {
	// A steady-state tree step at P = 16 (default fan-out 4: 12 level-0
	// and 3 level-1 member uploads, 5 leader folds reading 15 uploads,
	// the root put and 15 root reads) allocates only the request labels
	// and the key layout. Each of the 16 Puts joins bucket and key into
	// its request label (1 each) and hands the rank buffer to the store
	// as it stands; each of the 30 object reads joins a label (1 each);
	// every key is one formatted string (15 uploads, 15 leader reads,
	// the root's put, 15 root reads). Publish encodes into the rank
	// buffer and allocates nothing. Each step reuses step 1's keys, so
	// the store's map only overwrites. 16 + 30 + 46 = 92; while the
	// stores copied every Put it was 108, and the Vector fold before
	// that allocated 144, its accumulators regrowing every step.
	const p, dim, want = 16, 500, 92
	if raceEnabled {
		t.Skip("race instrumentation makes EncodeTo's pooled sort scratch drop puts; the pin holds only uninstrumented")
	}
	env := testEnv(p, dim, 0)
	x, err := New(KindTree, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
	}
	sigs := randomSigs(p, dim, 60, 17)
	clocks := make([]vclock.Clock, p)
	wire := make([][]byte, p)
	pulls := make([]PullCtx, p)
	for i := range pulls {
		pulls[i] = PullCtx{Worker: i, Clock: &clocks[i], Step: 1, ActiveIDs: ids,
			Params: make(sparse.Dense, dim), OwnSig: sigs[i]}
	}
	step := func() {
		for i := range ids {
			if wire[i], err = x.Publish(&clocks[i], i, 1, sigs[i], ids, wire[i][:0]); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < x.Rounds(p); r++ {
			for i := range ids {
				if err := x.RunRound(&clocks[i], i, 1, r, ids, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range pulls {
			if _, err := x.Pull(&pulls[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	step() // grow every buffer and scratch to its high-water mark
	if got := testing.AllocsPerRun(20, step); got != want {
		t.Fatalf("steady-state tree step allocates %v, want %d", got, want)
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
	env := testEnv(4, 40, 2)
	x, err := New(KindTree, env)
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
	pc.Announced = []Announcement{{Step: 1, Worker: 1}}
	if _, err := x.Pull(pc); err == nil ||
		err.Error() != "missing peer update job0/upd/1/1 (announced: [job0/upd/1/1])" {
		t.Fatalf("missing-update err = %v", err)
	}
}

func TestCollectiveBilling(t *testing.T) {
	env := testEnv(4, 40, 4)
	x, err := New(KindTree, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	sigs := randomSigs(4, 40, 15, 13)
	runCollectiveStep(t, x, ids, 40, sigs)
	var m cost.Meter
	x.BillInto(&m)
	rep := m.Report()
	// One level at P = 4, fan-out 4: 3 member uploads + 1 root put = 4
	// class A; the leader's 3 reads + 3 root reads = 6 class B.
	want := []cost.Component{
		{Name: "cos-class-a-requests", Kind: "requests", Dollars: 4 * cost.PriceCOSClassARequest},
		{Name: "cos-class-b-requests", Kind: "requests", Dollars: 6 * cost.PriceCOSClassBRequest},
	}
	if !reflect.DeepEqual(rep.Components, want) {
		t.Fatalf("bill = %+v, want %+v", rep.Components, want)
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
