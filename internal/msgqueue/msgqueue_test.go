package msgqueue

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mlless/internal/faults"
	"mlless/internal/netmodel"
	"mlless/internal/vclock"
)

func fastBroker() *Broker { return New(netmodel.Link{}) }

func TestPublishConsumeFIFO(t *testing.T) {
	b := fastBroker()
	b.DeclareQueue("q")
	var clk vclock.Clock
	for i := 0; i < 5; i++ {
		if err := b.Publish(&clk, "q", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		msg, ok := b.Consume(&clk, "q")
		if !ok || msg[0] != byte(i) {
			t.Fatalf("Consume %d = %v, %v", i, msg, ok)
		}
	}
	if _, ok := b.Consume(&clk, "q"); ok {
		t.Fatal("empty queue yielded a message")
	}
}

func TestPublishUndeclared(t *testing.T) {
	b := fastBroker()
	var clk vclock.Clock
	if err := b.Publish(&clk, "nope", []byte("x")); !errors.Is(err, ErrNoQueue) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeclareIdempotent(t *testing.T) {
	b := fastBroker()
	b.DeclareQueue("q")
	var clk vclock.Clock
	if err := b.Publish(&clk, "q", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.DeclareQueue("q") // must not drop pending messages
	if b.Len("q") != 1 {
		t.Fatal("re-declare dropped messages")
	}
}

func TestFanout(t *testing.T) {
	b := fastBroker()
	b.DeclareFanout("updates")
	b.DeclareQueue("w0")
	b.DeclareQueue("w1")
	if err := b.Bind("updates", "w0"); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("updates", "w1"); err != nil {
		t.Fatal(err)
	}
	var clk vclock.Clock
	if err := b.PublishFanout(&clk, "updates", []byte("u")); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"w0", "w1"} {
		msg, ok := b.Consume(&clk, q)
		if !ok || string(msg) != "u" {
			t.Fatalf("queue %s: %q, %v", q, msg, ok)
		}
	}
}

// TestFanoutSharesOneCopy pins the fanout's ownership: every bound
// queue receives the same single copy of the message, and the publisher
// reusing its buffer afterwards (as the engine's announcements do)
// changes no queued message.
func TestFanoutSharesOneCopy(t *testing.T) {
	b := fastBroker()
	b.DeclareFanout("x")
	b.DeclareQueue("a")
	b.DeclareQueue("b")
	_ = b.Bind("x", "a")
	_ = b.Bind("x", "b")
	var clk vclock.Clock
	buf := []byte("m1")
	_ = b.PublishFanout(&clk, "x", buf)
	copy(buf, "zz")
	msgA, _ := b.Consume(&clk, "a")
	msgB, _ := b.Consume(&clk, "b")
	if string(msgA) != "m1" || string(msgB) != "m1" {
		t.Fatalf("queued %q and %q, want the bytes as published", msgA, msgB)
	}
	if &msgA[0] != &msgB[0] {
		t.Fatal("fanout queues hold separate copies, want one shared copy")
	}
	if &msgA[0] == &buf[0] {
		t.Fatal("fanout queued the publisher's buffer, want a copy")
	}
}

// TestFanoutAllocatesOneCopy pins that a fanout's host cost does not
// grow with the number of bound queues: one message copy per publish,
// once a ConsumeAll has sized each queue for the depth it refills to.
func TestFanoutAllocatesOneCopy(t *testing.T) {
	const depth = 8
	for _, p := range []int{1, 4, 32} {
		b := fastBroker()
		b.DeclareFanout("x")
		for i := 0; i < p; i++ {
			q := fmt.Sprintf("q%d", i)
			b.DeclareQueue(q)
			_ = b.Bind("x", q)
		}
		var clk vclock.Clock
		msg := []byte("announcement")
		for i := 0; i < depth; i++ {
			_ = b.PublishFanout(&clk, "x", msg)
		}
		for i := 0; i < p; i++ {
			b.ConsumeAll(&clk, fmt.Sprintf("q%d", i))
		}
		// AllocsPerRun makes one warm-up call, so depth calls in all.
		n := testing.AllocsPerRun(depth-1, func() { _ = b.PublishFanout(&clk, "x", msg) })
		if n != 1 {
			t.Fatalf("P=%d: PublishFanout allocates %v per publish, want 1", p, n)
		}
	}
}

func TestBindErrors(t *testing.T) {
	b := fastBroker()
	if err := b.Bind("nox", "noq"); !errors.Is(err, ErrNoExchange) {
		t.Fatalf("err = %v", err)
	}
	b.DeclareFanout("x")
	if err := b.Bind("x", "noq"); !errors.Is(err, ErrNoQueue) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnbindStopsDelivery(t *testing.T) {
	b := fastBroker()
	b.DeclareFanout("x")
	b.DeclareQueue("q")
	_ = b.Bind("x", "q")
	b.Unbind("x", "q")
	var clk vclock.Clock
	_ = b.PublishFanout(&clk, "x", []byte("m"))
	if b.Len("q") != 0 {
		t.Fatal("unbound queue still receives")
	}
}

func TestDeleteQueueUnbinds(t *testing.T) {
	b := fastBroker()
	b.DeclareFanout("x")
	b.DeclareQueue("q")
	_ = b.Bind("x", "q")
	b.DeleteQueue("q")
	var clk vclock.Clock
	if err := b.PublishFanout(&clk, "x", []byte("m")); err != nil {
		t.Fatal(err)
	}
	if b.Len("q") != 0 {
		t.Fatal("deleted queue received a message")
	}
}

func TestConsumeAll(t *testing.T) {
	b := fastBroker()
	b.DeclareQueue("q")
	var clk vclock.Clock
	for i := 0; i < 3; i++ {
		_ = b.Publish(&clk, "q", []byte{byte(i)})
	}
	msgs := b.ConsumeAll(&clk, "q")
	if len(msgs) != 3 || msgs[2][0] != 2 {
		t.Fatalf("ConsumeAll = %v", msgs)
	}
	if b.Len("q") != 0 {
		t.Fatal("ConsumeAll left messages")
	}
	// The drained queue keeps room for the depth it returned.
	if got := cap(b.queues["q"]); got != 3 {
		t.Fatalf("drained queue capacity %d, want 3", got)
	}
	// Draining an undeclared queue returns nothing and declares nothing.
	if msgs := b.ConsumeAll(&clk, "nope"); msgs != nil {
		t.Fatalf("ConsumeAll(undeclared) = %v", msgs)
	}
	if err := b.Publish(&clk, "nope", []byte("m")); !errors.Is(err, ErrNoQueue) {
		t.Fatalf("publish after draining an undeclared queue: err = %v, want ErrNoQueue", err)
	}
}

func TestConsumeAllSwapReusesTwoArrays(t *testing.T) {
	// A drainer handing back its previous drain alternates between two
	// arrays: after the first two drains of a queue refilled to the same
	// depth, a refill and drain allocate only the message copies, and
	// every drain returns its own step's messages in order.
	b := fastBroker()
	b.DeclareQueue("q")
	var clk vclock.Clock
	var msgs [][]byte
	step := byte(0)
	refillAndDrain := func() {
		step++
		for i := byte(0); i < 5; i++ {
			_ = b.Publish(&clk, "q", []byte{step, i})
		}
		msgs = b.ConsumeAllSwap(&clk, "q", msgs)
		if len(msgs) != 5 {
			t.Fatalf("step %d: drained %d messages, want 5", step, len(msgs))
		}
		for i, m := range msgs {
			if m[0] != step || m[1] != byte(i) {
				t.Fatalf("step %d: message %d = %v", step, i, m)
			}
		}
	}
	refillAndDrain()
	refillAndDrain()
	if n := testing.AllocsPerRun(10, refillAndDrain); n != 5 {
		t.Fatalf("a refill and drain allocates %v, want the 5 message copies", n)
	}
	if got := b.Registry().Counter("mq.consumed").Load(); got != int64(5*step) {
		t.Fatalf("mq.consumed = %d, want %d", got, 5*step)
	}
}

func TestClockCharging(t *testing.T) {
	link := netmodel.Link{Latency: time.Millisecond, BandwidthBps: 1e6}
	b := New(link)
	b.DeclareQueue("q")
	var clk vclock.Clock
	_ = b.Publish(&clk, "q", make([]byte, 1000))
	want := time.Millisecond + time.Millisecond // latency + 1000B at 1MB/s
	if clk.Now() != want {
		t.Fatalf("Publish charged %v, want %v", clk.Now(), want)
	}
}

func TestMetrics(t *testing.T) {
	b := fastBroker()
	b.DeclareQueue("q")
	var clk vclock.Clock
	_ = b.Publish(&clk, "q", []byte("abc"))
	b.Consume(&clk, "q")
	reg := b.Registry()
	if pub, con, bts := reg.Counter("mq.published").Load(), reg.Counter("mq.consumed").Load(), reg.Counter("mq.bytes_published").Load(); pub != 1 || con != 1 || bts != 3 {
		t.Fatalf("published=%d consumed=%d bytes=%d", pub, con, bts)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := fastBroker()
	b.DeclareQueue("q")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var clk vclock.Clock
			for i := 0; i < 100; i++ {
				if err := b.Publish(&clk, "q", []byte(fmt.Sprintf("%d/%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if b.Len("q") != 800 {
		t.Fatalf("queue depth = %d", b.Len("q"))
	}
}

// --- fault injection ---

func TestFaultSlowPublishMultipliesCharge(t *testing.T) {
	link := netmodel.BrokerLink()
	clean := New(link)
	in := faults.New(faults.Spec{Seed: 2, MQSlowProb: 1, MQSlowFactor: 3})
	faulty := New(link)
	faulty.SetFaults(in)
	clean.DeclareQueue("q")
	faulty.DeclareQueue("q")
	msg := make([]byte, 8192)
	var a, b vclock.Clock
	if err := clean.Publish(&a, "q", msg); err != nil {
		t.Fatal(err)
	}
	if err := faulty.Publish(&b, "q", msg); err != nil {
		t.Fatal(err)
	}
	if want := 3 * a.Now(); b.Now() != want {
		t.Fatalf("slow Publish charged %v, want %v (clean %v)", b.Now(), want, a.Now())
	}
	if m := in.Metrics(); m.MQSlowOps != 1 {
		t.Fatalf("MQSlowOps = %d, want 1", m.MQSlowOps)
	}
	// The message is delivered despite the spike.
	if got, ok := faulty.Consume(&b, "q"); !ok || len(got) != len(msg) {
		t.Fatalf("Consume after spike = %d bytes, %v", len(got), ok)
	}
}

func TestFaultFailedPublishCostsRetries(t *testing.T) {
	link := netmodel.BrokerLink()
	in := faults.New(faults.Spec{Seed: 2, MQFailProb: 1})
	b := New(link)
	b.SetFaults(in)
	b.DeclareQueue("q")
	msg := make([]byte, 2048)
	var clk vclock.Clock
	if err := b.Publish(&clk, "q", msg); err != nil {
		t.Fatal(err)
	}
	base := link.TransferTime(len(msg))
	want := base + 5*(faults.DefaultRetryPenalty+base)
	if clk.Now() != want {
		t.Fatalf("failed Publish charged %v, want %v", clk.Now(), want)
	}
	if m := in.Metrics(); m.MQFailures != 5 {
		t.Fatalf("MQFailures = %d, want 5", m.MQFailures)
	}
	if b.Len("q") != 1 {
		t.Fatal("message lost to injected failures")
	}
}
