package allreduce

import (
	"math"
	"testing"
	"time"

	"mlless/internal/netmodel"
	"mlless/internal/sparse"
)

func TestRingTimeDegenerate(t *testing.T) {
	link := netmodel.VMPeerLink()
	if RingTime(link, 1, 1<<20) != 0 {
		t.Fatal("single participant must be free")
	}
	if RingTime(link, 8, 0) != 0 {
		t.Fatal("zero bytes must be free")
	}
}

func TestRingBeatsNaive(t *testing.T) {
	link := netmodel.VMPeerLink()
	for _, p := range []int{2, 4, 8, 24} {
		ring := RingTime(link, p, 10<<20)
		naive := NaiveTime(link, p, 10<<20)
		if ring >= naive {
			t.Fatalf("p=%d: ring %v not faster than naive %v", p, ring, naive)
		}
	}
}

func TestRingBandwidthTermNearlyConstantInP(t *testing.T) {
	// Ring all-reduce moves 2n(p−1)/p bytes per node: the bandwidth term
	// approaches 2n/bw as p grows. With negligible latency, doubling p
	// must not meaningfully change the time.
	link := netmodel.Link{BandwidthBps: 125e6}
	t8 := RingTime(link, 8, 100<<20)
	t16 := RingTime(link, 16, 100<<20)
	ratio := t16.Seconds() / t8.Seconds()
	if ratio > 1.15 {
		t.Fatalf("ring time grew %vx from p=8 to p=16", ratio)
	}
}

func TestRingLatencyTermLinearInP(t *testing.T) {
	link := netmodel.Link{Latency: time.Millisecond}
	t4 := RingTime(link, 4, 1)
	t8 := RingTime(link, 8, 1)
	if t4 != 6*time.Millisecond || t8 != 14*time.Millisecond {
		t.Fatalf("latency phases: p=4 %v, p=8 %v", t4, t8)
	}
}

func TestReduceTimeKernel(t *testing.T) {
	link := netmodel.Link{Latency: time.Millisecond, BandwidthBps: 1e6}
	if got := ReduceTime(link, 3, 1e6); got != 3*(time.Millisecond+time.Second) {
		t.Fatalf("ReduceTime = %v", got)
	}
	if ReduceTime(link, 0, 100) != 0 || ReduceTime(link, 2, 0) != 0 {
		t.Fatal("degenerate ReduceTime must be free")
	}
	// Ring and naive are pure reparameterizations of the kernel.
	if RingTime(link, 4, 4000) != ReduceTime(link, 6, 1000) {
		t.Fatal("RingTime diverged from ReduceTime kernel")
	}
	if NaiveTime(link, 4, 4000) != ReduceTime(link, 6, 4000) {
		t.Fatal("NaiveTime diverged from ReduceTime kernel")
	}
}

func TestTreeLevels(t *testing.T) {
	cases := []struct{ p, fanout, want int }{
		{1, 4, 0}, {2, 4, 1}, {4, 4, 1}, {5, 4, 2},
		{16, 4, 2}, {17, 4, 3}, {8, 2, 3}, {9, 2, 4},
		{7, 0, 3}, // fan-out below 2 clamps to binary
	}
	for _, c := range cases {
		if got := TreeLevels(c.p, c.fanout); got != c.want {
			t.Fatalf("TreeLevels(%d, %d) = %d, want %d", c.p, c.fanout, got, c.want)
		}
	}
}

func TestTreeTimeBetweenRingAndNaive(t *testing.T) {
	// Tree fan-in beats the serial gather-through-root for moderate p
	// but cannot beat the bandwidth-optimal ring at scale.
	link := netmodel.VMPeerLink()
	for _, p := range []int{8, 24} {
		tree := TreeTime(link, p, 4, 10<<20)
		if naive := NaiveTime(link, p, 10<<20); tree >= naive {
			t.Fatalf("p=%d: tree %v not faster than naive %v", p, tree, naive)
		}
		if ring := RingTime(link, p, 10<<20); tree <= ring {
			t.Fatalf("p=%d: tree %v not slower than ring %v", p, tree, ring)
		}
	}
	if TreeTime(link, 1, 4, 1<<20) != 0 {
		t.Fatal("single participant must be free")
	}
}

func TestMeanDense(t *testing.T) {
	a := sparse.Dense{1, 2, 3}
	b := sparse.Dense{3, 2, 1}
	dst := make(sparse.Dense, 3)
	MeanDense(dst, []sparse.Dense{a, b})
	want := sparse.Dense{2, 2, 2}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("MeanDense = %v", dst)
		}
	}
	MeanDense(dst, nil) // must not panic or change dst
	if dst[0] != 2 {
		t.Fatal("empty reduce changed dst")
	}
}

func TestMeanDenseInPlace(t *testing.T) {
	a := sparse.Dense{4, 0}
	b := sparse.Dense{0, 4}
	MeanDense(a, []sparse.Dense{a, b})
	if a[0] != 2 || a[1] != 2 {
		t.Fatalf("in-place MeanDense = %v", a)
	}
}
