// Package kvstore simulates the low-latency, in-memory key-value store
// (Redis in the paper, §3.1) through which MLLess workers exchange model
// updates. Functions cannot talk to each other directly, so every update
// makes a round trip through this store; the store therefore charges
// realistic request latencies and transfer times to the caller's virtual
// clock and keeps per-operation metrics that the experiment harness
// reports.
//
// All charging, fault injection, tracing and counter plumbing delegates
// to the shared substrate pipeline (package substrate); this package
// only owns the data plane. Store is the one endpoint of the paper's
// deployment: a single Redis VM.
//
// The store is safe for concurrent use. Values are copied at the API
// boundary so callers can never alias internal storage.
package kvstore

import (
	"sort"
	"strings"
	"sync"
	"time"

	"mlless/internal/faults"
	"mlless/internal/netmodel"
	"mlless/internal/substrate"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Store is a simulated in-memory key-value service.
type Store struct {
	pipe *substrate.Pipeline

	mu   sync.Mutex
	data map[string][]byte

	// Semantic traffic counters; they live in the unified registry under
	// "kv.*" and updates are lock-free atomic adds.
	cGets, cSets, cDeletes, cMisses, cBytesRead, cBytesWritten *trace.Counter
}

// New returns an empty store reached through link, with a private
// metrics registry.
func New(link netmodel.Link) *Store {
	return NewWithRegistry(link, trace.NewRegistry())
}

// NewWithRegistry returns an empty store whose counters live in the
// given unified registry under "kv.*".
func NewWithRegistry(link netmodel.Link, reg *trace.Registry) *Store {
	pipe := substrate.New(substrate.Config{
		Link:     link,
		Cat:      trace.CatKV,
		KeyLabel: "key",
		Domain:   substrate.DomainKV,
	}, reg)
	return &Store{
		pipe:          pipe,
		data:          make(map[string][]byte),
		cGets:         pipe.Counter("kv.gets"),
		cSets:         pipe.Counter("kv.sets"),
		cDeletes:      pipe.Counter("kv.deletes"),
		cMisses:       pipe.Counter("kv.misses"),
		cBytesRead:    pipe.Counter("kv.bytes_read"),
		cBytesWritten: pipe.Counter("kv.bytes_written"),
	}
}

// Registry returns the metrics registry the store's counters live in.
func (s *Store) Registry() *trace.Registry { return s.pipe.Registry() }

// SetFaults installs (or, with nil, removes) a fault injector that adds
// per-operation failures (client-retried, costing time) and latency
// spikes. Do not call concurrently with operations; the engine installs
// it during job setup and removes it at teardown.
func (s *Store) SetFaults(in *faults.Injector) { s.pipe.SetFaults(in) }

// SetTracer installs (or, with nil, removes) a tracer that records one
// span per operation on the calling clock's track, including any
// injected fault delay (the "fault_x" arg carries the observed charge
// multiplier). Same concurrency contract as SetFaults.
func (s *Store) SetTracer(tr *trace.Tracer) { s.pipe.SetTracer(tr) }

// Set stores a copy of val under key and charges the transfer to clk.
func (s *Store) Set(clk *vclock.Clock, key string, val []byte) {
	s.pipe.Charge(clk, "set", key, len(val), s.pipe.TransferTime(len(val)))
	cp := make([]byte, len(val))
	copy(cp, val)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = cp
	s.cSets.Inc()
	s.cBytesWritten.Add(int64(len(val)))
}

// Get returns a copy of the value under key. The round trip is charged
// to clk whether or not the key exists.
func (s *Store) Get(clk *vclock.Clock, key string) ([]byte, bool) {
	s.mu.Lock()
	val, ok := s.data[key]
	var cp []byte
	if ok {
		cp = make([]byte, len(val))
		copy(cp, val)
	}
	s.mu.Unlock()
	s.cGets.Inc()

	if !ok {
		s.cMisses.Inc()
		s.pipe.Charge(clk, "get", key, 0, s.pipe.RTT())
		return nil, false
	}
	s.cBytesRead.Add(int64(len(cp)))
	s.pipe.Charge(clk, "get", key, len(cp), s.pipe.TransferTime(len(cp)))
	return cp, true
}

// collect reads the values of keys into out, bumping the get/miss/bytes
// counters, and returns the total bytes returned; views skips the
// defensive copies. It performs no charging: the caller charges one
// pipelined transfer.
func (s *Store) collect(keys []string, out [][]byte, views bool) int {
	total := 0
	s.mu.Lock()
	for i, key := range keys {
		val, ok := s.data[key]
		s.cGets.Inc()
		if !ok {
			s.cMisses.Inc()
			continue
		}
		if views {
			out[i] = val
		} else {
			cp := make([]byte, len(val))
			copy(cp, val)
			out[i] = cp
		}
		total += len(val)
		s.cBytesRead.Add(int64(len(val)))
	}
	s.mu.Unlock()
	return total
}

// MGet fetches several keys in one pipelined request: a single request
// latency plus the bandwidth cost of all returned values. Missing keys
// yield nil entries.
func (s *Store) MGet(clk *vclock.Clock, keys []string) [][]byte {
	out := make([][]byte, len(keys))
	total := s.collect(keys, out, false)
	s.pipe.Charge(clk, "mget", firstKey(keys), total, s.pipe.TransferTime(total))
	return out
}

// firstKey labels a batched operation for fault injection; the batch's
// virtual instant disambiguates batches sharing a first key.
func firstKey(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// MGetView is MGet without the defensive copies: the returned slices
// alias the store's internal buffers. It is safe because stored values
// are immutable — Set replaces a key's slice wholesale and never mutates
// one in place — but callers must treat the views as read-only. It is
// the hot path for applying peer updates, which are read once and
// discarded.
func (s *Store) MGetView(clk *vclock.Clock, keys []string) [][]byte {
	return s.MGetViewInto(clk, keys, nil)
}

// MGetViewInto is MGetView writing into out, the zero-allocation
// variant for steady-state pull loops: out is resized (reallocating
// only when its capacity is short) and every entry is reset before the
// reads, so missing keys yield nil exactly as in MGetView. Charging is
// identical to MGetView. The returned slice must be passed back on the
// next call to reuse its capacity.
func (s *Store) MGetViewInto(clk *vclock.Clock, keys []string, out [][]byte) [][]byte {
	out = resizeViews(out, len(keys))
	total := s.collect(keys, out, true)
	s.pipe.Charge(clk, "mget", firstKey(keys), total, s.pipe.TransferTime(total))
	return out
}

// resizeViews returns out with length n and every entry nil, reusing
// its backing array when large enough.
func resizeViews(out [][]byte, n int) [][]byte {
	if cap(out) < n {
		return make([][]byte, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = nil
	}
	return out
}

// Delete removes key, charging one round trip.
func (s *Store) Delete(clk *vclock.Clock, key string) {
	s.pipe.Charge(clk, "del", key, 0, s.pipe.RTT())

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	s.cDeletes.Inc()
}

// Keys returns the sorted keys with the given prefix. It charges one
// round trip (key lists are tiny compared to values) and stays off the
// trace timeline: the scan happens server-side.
func (s *Store) Keys(clk *vclock.Clock, prefix string) []string {
	s.pipe.ChargeUntraced(clk, "keys", prefix, s.pipe.RTT())

	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len reports the number of stored keys without charging time (it is a
// harness-side observability call, not a data-path operation).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Flush removes all keys (job teardown between experiment runs).
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = make(map[string][]byte)
}

// Link returns the network link used by the store, so callers can
// estimate transfer times without performing operations.
func (s *Store) Link() netmodel.Link { return s.pipe.Link() }

// TransferTime is a convenience passthrough for estimating the cost of a
// hypothetical transfer of n bytes through this store's link.
func (s *Store) TransferTime(n int) time.Duration { return s.pipe.TransferTime(n) }
