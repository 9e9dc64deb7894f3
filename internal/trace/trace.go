// Package trace is the unified observability layer of the simulator: a
// deterministic, virtual-time structured tracer plus a shared metrics
// registry that subsumes the per-substrate counter structs.
//
// Every event is stamped with vclock virtual time — never wall time —
// so a trace is a pure function of the job's inputs: identical seeds
// yield byte-identical trace files regardless of how the engine's
// worker goroutines are scheduled (events are totally ordered at export
// by their content, not by emission order). Spans cover substrate
// operations (kvstore/objstore/msgqueue request + transfer), FaaS
// lifecycle (cold/warm start, relaunch generations, reclaim and
// recovery), engine phases (fetch/compute/publish/pull/barrier per
// worker per step) and scheduler decisions; see DESIGN.md §7 for the
// span taxonomy.
//
// A nil *Tracer is a valid, disabled tracer: every method is a no-op on
// a nil receiver, so instrumented components hold a plain handle and
// pay one predictable branch — and zero allocations — when tracing is
// off. Call sites that build event arguments must guard with Enabled()
// so the argument slice is never materialized on a disabled path:
//
//	if tr.Enabled() {
//		tr.SpanOn(track, "engine", "fetch", start, end, trace.Int("step", s))
//	}
package trace

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"mlless/internal/vclock"
)

// Event categories used across the simulator. Categories group spans in
// the Chrome trace viewer and let analysis passes (Timeline) select the
// engine phases.
const (
	CatKV     = "kv"     // key-value store operations
	CatObj    = "obj"    // object storage operations
	CatMQ     = "mq"     // message broker operations
	CatFaaS   = "faas"   // function lifecycle: starts, relaunch, terminate
	CatEngine = "engine" // per-step training phases
	CatSched  = "sched"  // auto-tuner decisions and evictions
	CatFault  = "fault"  // injected-fault recovery work
)

type argKind uint8

const (
	argStr argKind = iota
	argInt
	argFloat
)

// Arg is one key-value annotation on an event. Args keep their
// insertion order, so rendered traces are deterministic.
type Arg struct {
	Key  string
	kind argKind
	s    string
	i    int64
	f    float64
}

// Str annotates an event with a string value.
func Str(key, val string) Arg { return Arg{Key: key, kind: argStr, s: val} }

// Int annotates an event with an integer value.
func Int(key string, val int) Arg { return Arg{Key: key, kind: argInt, i: int64(val)} }

// I64 annotates an event with an int64 value.
func I64(key string, val int64) Arg { return Arg{Key: key, kind: argInt, i: val} }

// Float annotates an event with a float value.
func Float(key string, val float64) Arg { return Arg{Key: key, kind: argFloat, f: val} }

// Secs annotates an event with a duration rendered in fractional
// seconds (the unit of the exported JSON).
func Secs(key string, d time.Duration) Arg { return Float(key, d.Seconds()) }

// renderValue returns the JSON encoding of the arg's value.
func (a Arg) renderValue() string {
	switch a.kind {
	case argInt:
		return strconv.FormatInt(a.i, 10)
	case argFloat:
		return strconv.FormatFloat(a.f, 'g', -1, 64)
	default:
		return strconv.Quote(a.s)
	}
}

// Event is one recorded trace record: a span (Phase 'X', with a
// duration) or an instant (Phase 'i').
type Event struct {
	// Track names the logical thread the event belongs to ("worker-3",
	// "supervisor", "cluster").
	Track string
	// Cat is one of the Cat* categories.
	Cat string
	// Name identifies the operation ("fetch", "cold-start", "evict").
	Name string
	// Phase is 'X' for spans and 'i' for instants (Chrome trace-event
	// phase codes).
	Phase byte
	// Start is the event's virtual start time.
	Start time.Duration
	// Dur is the span length (zero for instants).
	Dur time.Duration
	// Args are ordered annotations.
	Args []Arg

	seq uint64 // emission tiebreaker among fully identical events
}

// ArgInt returns the integer arg with the given key.
func (e Event) ArgInt(key string) (int64, bool) {
	for _, a := range e.Args {
		if a.Key == key && a.kind == argInt {
			return a.i, true
		}
	}
	return 0, false
}

// ArgFloat returns the float arg with the given key.
func (e Event) ArgFloat(key string) (float64, bool) {
	for _, a := range e.Args {
		if a.Key == key && a.kind == argFloat {
			return a.f, true
		}
	}
	return 0, false
}

// ArgStr returns the string arg with the given key.
func (e Event) ArgStr(key string) (string, bool) {
	for _, a := range e.Args {
		if a.Key == key && a.kind == argStr {
			return a.s, true
		}
	}
	return "", false
}

// less is the deterministic total order on events: content first, the
// emission sequence only as a final tiebreaker among byte-identical
// events (where relative order cannot affect the exported file).
func (e *Event) less(o *Event) bool {
	if e.Start != o.Start {
		return e.Start < o.Start
	}
	if e.Track != o.Track {
		return e.Track < o.Track
	}
	if e.Name != o.Name {
		return e.Name < o.Name
	}
	if e.Cat != o.Cat {
		return e.Cat < o.Cat
	}
	if e.Phase != o.Phase {
		return e.Phase < o.Phase
	}
	if e.Dur != o.Dur {
		return e.Dur < o.Dur
	}
	if len(e.Args) != len(o.Args) {
		return len(e.Args) < len(o.Args)
	}
	for i := range e.Args {
		a, b := e.Args[i], o.Args[i]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.s != b.s {
			return a.s < b.s
		}
		if a.i != b.i {
			return a.i < b.i
		}
		if a.f != b.f {
			return a.f < b.f
		}
	}
	return e.seq < o.seq
}

// Tracer records events stamped with virtual time. It is safe for
// concurrent use; a nil *Tracer is a disabled tracer on which every
// method is a no-op.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	clocks map[*vclock.Clock]string
	seq    uint64
}

// New returns an empty, enabled tracer.
func New() *Tracer {
	return &Tracer{clocks: make(map[*vclock.Clock]string)}
}

// Enabled reports whether the tracer records anything. Guard argument
// construction with it so disabled call sites allocate nothing.
func (t *Tracer) Enabled() bool { return t != nil }

// RegisterClock associates a virtual clock with a track, so substrate
// operations charged to that clock land on the owning component's
// timeline. Re-registering a clock moves it; clocks never registered
// are ignored by the clock-addressed emitters (their operations belong
// to harness bookkeeping, not to the traced job).
func (t *Tracer) RegisterClock(clk *vclock.Clock, track string) {
	if t == nil || clk == nil {
		return
	}
	t.mu.Lock()
	t.clocks[clk] = track
	t.mu.Unlock()
}

// emit appends an event under the tracer lock.
func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	ev.seq = t.seq
	t.seq++
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// SpanOn records a span on an explicitly named track.
func (t *Tracer) SpanOn(track, cat, name string, start, end time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.emit(Event{Track: track, Cat: cat, Name: name, Phase: 'X', Start: start, Dur: end - start, Args: args})
}

// InstantOn records an instant event on an explicitly named track.
func (t *Tracer) InstantOn(track, cat, name string, at time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(Event{Track: track, Cat: cat, Name: name, Phase: 'i', Start: at, Args: args})
}

// SpanAt records a span ending at the clock's current time on the
// clock's registered track. Unregistered clocks drop the event.
func (t *Tracer) SpanAt(clk *vclock.Clock, cat, name string, start time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	track, ok := t.clocks[clk]
	t.mu.Unlock()
	if !ok {
		return
	}
	t.SpanOn(track, cat, name, start, clk.Now(), args...)
}

// SpanRangeAt records a span over an explicit [start, end] interval on
// the clock's registered track. Fan-out operations — a sharded KV fetch
// that charges the caller the maximum of its parallel shard transfers —
// use it to emit per-branch spans whose ends precede the clock's
// post-fan-out time. Unregistered clocks drop the event.
func (t *Tracer) SpanRangeAt(clk *vclock.Clock, cat, name string, start, end time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	track, ok := t.clocks[clk]
	t.mu.Unlock()
	if !ok {
		return
	}
	t.SpanOn(track, cat, name, start, end, args...)
}

// InstantAt records an instant at an explicit virtual time on the
// clock's registered track. Unregistered clocks drop the event.
func (t *Tracer) InstantAt(clk *vclock.Clock, cat, name string, at time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	track, ok := t.clocks[clk]
	t.mu.Unlock()
	if !ok {
		return
	}
	t.InstantOn(track, cat, name, at, args...)
}

// Events returns the recorded events in their deterministic total
// order. The returned slice is a copy; the tracer can keep recording.
// The copies carry no emission sequence — it is host scheduling, not
// content — so two runs of one job return deeply equal slices.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].less(&out[j]) })
	for i := range out {
		out[i].seq = 0
	}
	return out
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
