// Package msgqueue simulates the messaging service (RabbitMQ on a
// C1.4x4 VM in the paper, §3.1) that carries control traffic between
// MLLess workers and the supervisor: update-availability announcements,
// per-step loss reports, and scale-in commands. It offers named FIFO
// queues and fanout exchanges, the two primitives the prototype uses.
//
// Link charging, fault injection, tracing and counters delegate to the
// shared substrate pipeline (package substrate); this package owns only
// the queue/exchange data plane.
//
// The broker is safe for concurrent use; consumption is non-blocking
// because the simulator's step engine polls at deterministic points
// instead of parking goroutines.
//
// A publish copies msg once, so the publisher may reuse its buffer at
// once; a fanout enqueues that one copy on every bound queue. Consumed
// messages are those stored bytes, shared between queues: read-only,
// like every store read in this simulator (package kvstore states the
// ownership rule).
//
// A drain hands the drainer the queue's slice of messages. A drainer
// that drains the same queue step after step hands its previous slice
// back to ConsumeAllSwap, which empties it and makes it the queue's next
// backing: from then on the broker owns that array, and the drainer must
// not read it (nor any slice sharing it) again. Two arrays alternate, so
// a queue refilled to the same depth every step allocates nothing.
package msgqueue

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"mlless/internal/faults"
	"mlless/internal/netmodel"
	"mlless/internal/substrate"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// ErrNoQueue is returned when addressing an undeclared queue.
var ErrNoQueue = errors.New("msgqueue: queue not declared")

// ErrNoExchange is returned when addressing an undeclared exchange.
var ErrNoExchange = errors.New("msgqueue: exchange not declared")

// Broker is a simulated message broker.
type Broker struct {
	pipe *substrate.Pipeline

	mu        sync.Mutex
	queues    map[string][][]byte
	exchanges map[string]map[string]bool // exchange -> bound queues

	// Counters live in the unified registry under "mq.*".
	cPublished, cConsumed, cBytesPublished *trace.Counter
}

// New returns an empty broker reached through link, with a private
// metrics registry.
func New(link netmodel.Link) *Broker {
	return NewWithRegistry(link, trace.NewRegistry())
}

// NewWithRegistry returns an empty broker whose counters live in the
// given unified registry under "mq.*".
func NewWithRegistry(link netmodel.Link, reg *trace.Registry) *Broker {
	pipe := substrate.New(substrate.Config{
		Link:     link,
		Cat:      trace.CatMQ,
		KeyLabel: "queue",
		Domain:   substrate.DomainMQ,
	}, reg)
	return &Broker{
		pipe:            pipe,
		queues:          make(map[string][][]byte),
		exchanges:       make(map[string]map[string]bool),
		cPublished:      pipe.Counter("mq.published"),
		cConsumed:       pipe.Counter("mq.consumed"),
		cBytesPublished: pipe.Counter("mq.bytes_published"),
	}
}

// Registry returns the metrics registry the broker's counters live in.
func (b *Broker) Registry() *trace.Registry { return b.pipe.Registry() }

// Link returns the broker's network link parameters, so a sandboxed
// execution can build a private broker with identical timing.
func (b *Broker) Link() netmodel.Link { return b.pipe.Link() }

// SetTracer installs (or, with nil, removes) a tracer recording one
// span per operation on the calling clock's track, with any injected
// fault delay recorded as a "fault_x" charge multiplier. Same
// concurrency contract as SetFaults.
func (b *Broker) SetTracer(tr *trace.Tracer) { b.pipe.SetTracer(tr) }

// SetFaults installs (or, with nil, removes) a fault injector that adds
// per-operation failures (client-retried, costing time) and latency
// spikes. Do not call concurrently with operations; the engine installs
// it during job setup and removes it at teardown.
func (b *Broker) SetFaults(in *faults.Injector) { b.pipe.SetFaults(in) }

// DeclareQueue creates a queue if it does not exist (idempotent).
func (b *Broker) DeclareQueue(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.queues[name]; !ok {
		b.queues[name] = nil
	}
}

// DeleteQueue removes a queue and unbinds it from all exchanges.
func (b *Broker) DeleteQueue(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.queues, name)
	for _, bound := range b.exchanges {
		delete(bound, name)
	}
}

// DeclareFanout creates a fanout exchange if it does not exist.
func (b *Broker) DeclareFanout(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.exchanges[name]; !ok {
		b.exchanges[name] = make(map[string]bool)
	}
}

// Bind attaches queue to exchange so fanout publishes reach it.
func (b *Broker) Bind(exchange, queue string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	bound, ok := b.exchanges[exchange]
	if !ok {
		return fmt.Errorf("bind %s->%s: %w", exchange, queue, ErrNoExchange)
	}
	if _, ok := b.queues[queue]; !ok {
		return fmt.Errorf("bind %s->%s: %w", exchange, queue, ErrNoQueue)
	}
	bound[queue] = true
	return nil
}

// Unbind detaches queue from exchange (idempotent).
func (b *Broker) Unbind(exchange, queue string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.exchanges[exchange], queue)
}

// Publish appends a copy of msg to queue, charging one transfer to clk.
func (b *Broker) Publish(clk *vclock.Clock, queue string, msg []byte) error {
	b.pipe.Charge(clk, "publish", queue, len(msg), b.pipe.TransferTime(len(msg)))
	cp := bytes.Clone(msg)

	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.queues[queue]; !ok {
		return fmt.Errorf("publish to %s: %w", queue, ErrNoQueue)
	}
	b.queues[queue] = append(b.queues[queue], cp)
	b.cPublished.Inc()
	b.cBytesPublished.Add(int64(len(msg)))
	return nil
}

// PublishFanout delivers msg to every queue bound to exchange: one copy,
// enqueued on each. A single transfer is charged: the broker VM, not
// the publisher, performs the replication.
func (b *Broker) PublishFanout(clk *vclock.Clock, exchange string, msg []byte) error {
	b.pipe.Charge(clk, "fanout", exchange, len(msg), b.pipe.TransferTime(len(msg)))

	b.mu.Lock()
	defer b.mu.Unlock()
	bound, ok := b.exchanges[exchange]
	if !ok {
		return fmt.Errorf("publish to exchange %s: %w", exchange, ErrNoExchange)
	}
	cp := bytes.Clone(msg)
	for q := range bound {
		b.queues[q] = append(b.queues[q], cp)
		b.cPublished.Inc()
		b.cBytesPublished.Add(int64(len(msg)))
	}
	return nil
}

// ConsumeAll drains queue, charging a single round trip plus the
// bandwidth of everything returned (a batched basic.get). The drained
// queue restarts with room for as many messages as it just returned, so
// a queue refilled to the same depth every step does not regrow.
func (b *Broker) ConsumeAll(clk *vclock.Clock, queue string) [][]byte {
	return b.ConsumeAllSwap(clk, queue, nil)
}

// ConsumeAllSwap is ConsumeAll that restarts the drained queue on spare,
// the slice this drainer's previous drain returned, emptied (see the
// package comment for who owns what); a nil spare is ConsumeAll's fresh
// slice. The charge and the counters are ConsumeAll's.
func (b *Broker) ConsumeAllSwap(clk *vclock.Clock, queue string, spare [][]byte) [][]byte {
	clear(spare)
	b.mu.Lock()
	msgs, ok := b.queues[queue]
	if ok {
		if spare == nil {
			spare = make([][]byte, 0, len(msgs))
		}
		b.queues[queue] = spare[:0]
	}
	b.cConsumed.Add(int64(len(msgs)))
	b.mu.Unlock()

	total := 0
	for _, m := range msgs {
		total += len(m)
	}
	b.pipe.Charge(clk, "consume-all", queue, total, b.pipe.TransferTime(total))
	return msgs
}

// Len reports the queue depth (observability; charges no time).
func (b *Broker) Len(queue string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queues[queue])
}
