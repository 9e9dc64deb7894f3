package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mlless/internal/vclock"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	var clk vclock.Clock
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every method must be a no-op on a nil receiver.
	tr.RegisterClock(&clk, "worker-0")
	tr.SpanOn("worker-0", CatEngine, "fetch", 0, time.Second)
	tr.InstantOn("worker-0", CatSched, "evict", 0)
	tr.SpanAt(&clk, CatKV, "get", 0)
	tr.InstantAt(&clk, CatFaaS, "terminate", 0)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}

	// The Enabled-guard idiom must cost zero allocations when disabled:
	// this is the contract that lets every substrate hold a plain handle
	// on its hot path.
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			tr.SpanAt(&clk, CatKV, "get", 0, Str("key", "k"), Int("bytes", 8))
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled emission path allocates %.1f times per op", allocs)
	}
}

func TestEventOrderIsContentBasedNotEmissionBased(t *testing.T) {
	// Two tracers record the same events in opposite emission order, as
	// racing worker goroutines would; the exported bytes must match.
	emit := func(tr *Tracer, reverse bool) {
		events := []func(){
			func() { tr.SpanOn("worker-0", CatEngine, "fetch", 10, 20, Int("step", 1)) },
			func() { tr.SpanOn("worker-1", CatEngine, "fetch", 10, 25, Int("step", 1)) },
			func() { tr.InstantOn("supervisor", CatSched, "evict", 30, Int("worker", 1)) },
			func() { tr.SpanOn("worker-0", CatKV, "set", 5, 7, Str("key", "a")) },
		}
		if reverse {
			for i := len(events) - 1; i >= 0; i-- {
				events[i]()
			}
		} else {
			for _, f := range events {
				f()
			}
		}
	}
	a, b := New(), New()
	emit(a, false)
	emit(b, true)

	var bufA, bufB bytes.Buffer
	if err := WriteChrome(&bufA, a.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&bufB, b.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("emission order leaked into the export:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("emission order leaked into Events()")
	}
}

func TestConcurrentEmissionIsDeterministic(t *testing.T) {
	// The parallel driver completes spans from racing worker goroutines,
	// so events arrive interleaved in nondeterministic emission order —
	// including spans that finish after later-starting spans on other
	// tracks. The content-based total order must absorb that: a
	// concurrent emission and a sequential one of the same events export
	// byte-identical files.
	const tracks, spans = 8, 50
	emitTrack := func(tr *Tracer, w int) {
		track := fmt.Sprintf("worker-%d", w)
		for s := 0; s < spans; s++ {
			// Starts interleave across tracks; durations vary so span
			// completion order differs from start order.
			start := time.Duration(s*tracks + w)
			tr.SpanOn(track, CatEngine, "compute", start, start+time.Duration(1+(w+s)%5),
				Int("step", s))
		}
	}

	seq := New()
	for w := 0; w < tracks; w++ {
		emitTrack(seq, w)
	}

	par := New()
	var wg sync.WaitGroup
	for w := 0; w < tracks; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			emitTrack(par, w)
		}(w)
	}
	wg.Wait()

	var bufSeq, bufPar bytes.Buffer
	if err := WriteChrome(&bufSeq, seq.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&bufPar, par.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufSeq.Bytes(), bufPar.Bytes()) {
		t.Fatal("concurrent emission leaked into the export")
	}
	if !reflect.DeepEqual(seq.Events(), par.Events()) {
		t.Fatal("concurrent emission leaked into Events()")
	}
}

func TestClockRegistry(t *testing.T) {
	tr := New()
	var reg, unreg vclock.Clock
	tr.RegisterClock(&reg, "worker-3")
	reg.Advance(time.Second)
	unreg.Advance(time.Second)

	tr.SpanAt(&reg, CatKV, "get", 500*time.Millisecond)
	tr.SpanAt(&unreg, CatKV, "get", 500*time.Millisecond) // dropped: janitor clock
	tr.InstantAt(&unreg, CatFaaS, "terminate", time.Second)

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1 (unregistered clocks must drop)", len(evs))
	}
	ev := evs[0]
	if ev.Track != "worker-3" || ev.Start != 500*time.Millisecond || ev.Dur != 500*time.Millisecond {
		t.Fatalf("span: %+v", ev)
	}

	// Re-registering moves the clock to a new track.
	tr.RegisterClock(&reg, "worker-4")
	tr.SpanAt(&reg, CatKV, "get", time.Second)
	evs = tr.Events()
	if evs[len(evs)-1].Track != "worker-4" {
		t.Fatalf("re-registration did not move the clock: %+v", evs)
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	tr := New()
	tr.SpanOn("w", CatEngine, "x", 10*time.Millisecond, 5*time.Millisecond)
	if d := tr.Events()[0].Dur; d != 0 {
		t.Fatalf("negative span not clamped: %v", d)
	}
}

func TestWriteChromeIsValidTraceJSON(t *testing.T) {
	tr := New()
	tr.SpanOn("worker-0", CatEngine, "compute", time.Millisecond, 3*time.Millisecond,
		Int("step", 1), Float("fault_x", 10), Str("key", `a"b`))
	tr.SpanOn("worker-10", CatEngine, "compute", time.Millisecond, 2*time.Millisecond)
	tr.SpanOn("supervisor", CatEngine, "aggregate", 3*time.Millisecond, 4*time.Millisecond)
	tr.InstantOn("supervisor", CatSched, "evict", 4*time.Millisecond, Int("worker", 0))

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// Track ids: supervisor first, then workers in numeric (not
	// alphabetical) order — worker-10 after worker-0.
	tids := map[string]int{}
	var spans, instants, metas int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
			if ev.Name == "thread_name" {
				tids[ev.Args["name"].(string)] = ev.Tid
			}
		case "X":
			spans++
			if ev.Pid != 1 {
				t.Fatalf("span pid = %d", ev.Pid)
			}
		case "i":
			instants++
			if ev.S != "t" {
				t.Fatalf("instant scope = %q", ev.S)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 3 || instants != 1 || metas == 0 {
		t.Fatalf("spans=%d instants=%d metas=%d", spans, instants, metas)
	}
	if !(tids["supervisor"] < tids["worker-0"] && tids["worker-0"] < tids["worker-10"]) {
		t.Fatalf("track order wrong: %v", tids)
	}

	// Span timestamps are microseconds: the 1 ms start renders as 1000.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "aggregate" && ev.Ts != 3000 {
			t.Fatalf("aggregate ts = %v µs, want 3000", ev.Ts)
		}
		if ev.Ph == "X" && ev.Name == "compute" && ev.Tid == tids["worker-0"] {
			if ev.Args["fault_x"].(float64) != 10 || ev.Args["key"].(string) != `a"b` {
				t.Fatalf("args round-trip: %v", ev.Args)
			}
		}
	}
}

func TestTimelineStats(t *testing.T) {
	tr := New()
	// Step 1: three workers with known fetch durations 10/20/90 ms.
	for i, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 90 * time.Millisecond} {
		tr.SpanOn("worker-"+string(rune('0'+i)), CatEngine, "fetch", 0, d, Int("step", 1))
	}
	// Non-phase spans and spans without a step arg are ignored.
	tr.SpanOn("worker-0", CatKV, "fetch", 0, time.Second, Int("step", 1))
	tr.SpanOn("worker-0", CatEngine, "fetch", 0, time.Second)
	tr.SpanOn("worker-0", CatEngine, "barrier", 0, 5*time.Millisecond, Int("step", 2))

	steps := Timeline(tr.Events())
	if len(steps) != 2 || steps[0].Step != 1 || steps[1].Step != 2 {
		t.Fatalf("steps: %+v", steps)
	}
	st := steps[0].Stat("fetch")
	if st.N != 3 || st.P50 != 20*time.Millisecond || st.Max != 90*time.Millisecond {
		t.Fatalf("fetch stats: %+v", st)
	}
	if st.Mean != 40*time.Millisecond {
		t.Fatalf("fetch mean: %v", st.Mean)
	}
	if steps[0].Stat("pull").N != 0 {
		t.Fatalf("absent phase has samples")
	}

	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "barrier") || !strings.Contains(out, "20.00") {
		t.Fatalf("timeline table:\n%s", out)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("kv.gets").Add(3)
	r.Counter("kv.gets").Inc() // same counter
	r.Counter("faas.cold_starts").Inc()
	r.Counter("obj.puts") // registered, never fired

	snap := r.Snapshot()
	want := []Metric{
		{Name: "faas.cold_starts", Value: 1},
		{Name: "kv.gets", Value: 4},
		{Name: "obj.puts", Value: 0},
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot: %+v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, snap[i], want[i])
		}
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kv.gets") {
		t.Fatalf("text:\n%s", buf.String())
	}
}
