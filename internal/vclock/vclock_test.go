package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestZeroValueUsable(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %v", c.Now())
	}
	c.Advance(time.Second)
	if c.Now() != time.Second {
		t.Fatalf("after Advance: %v", c.Now())
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(-10 * time.Second)
	if c.Now() != time.Second {
		t.Fatalf("negative Advance changed time: %v", c.Now())
	}
}

func TestAdvanceToMonotone(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Second)
	c.AdvanceTo(3 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("AdvanceTo went backwards: %v", c.Now())
	}
	c.AdvanceTo(8 * time.Second)
	if c.Now() != 8*time.Second {
		t.Fatalf("AdvanceTo did not advance: %v", c.Now())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	a, b, c := &Clock{}, &Clock{}, &Clock{}
	a.Advance(1 * time.Second)
	b.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	max := Barrier([]*Clock{a, b, c})
	if max != 3*time.Second {
		t.Fatalf("Barrier returned %v", max)
	}
	for _, cl := range []*Clock{a, b, c} {
		if cl.Now() != 3*time.Second {
			t.Fatalf("clock not synchronized: %v", cl.Now())
		}
	}
}

func TestBarrierEmpty(t *testing.T) {
	if Barrier(nil) != 0 {
		t.Fatal("empty Barrier non-zero")
	}
}

func TestBarrierIdempotent(t *testing.T) {
	if err := quick.Check(func(ns []uint32) bool {
		clocks := make([]*Clock, len(ns))
		for i, n := range ns {
			clocks[i] = &Clock{}
			clocks[i].Advance(time.Duration(n))
		}
		first := Barrier(clocks)
		second := Barrier(clocks)
		return first == second
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDoesNotMutate(t *testing.T) {
	a, b := &Clock{}, &Clock{}
	a.Advance(time.Second)
	b.Advance(2 * time.Second)
	if Max([]*Clock{a, b}) != 2*time.Second {
		t.Fatal("Max wrong")
	}
	if a.Now() != time.Second {
		t.Fatal("Max mutated a clock")
	}
}
