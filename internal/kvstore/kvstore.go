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
// The store is safe for concurrent use. It copies nothing: Set keeps
// the caller's slice, and every read returns the stored bytes
// themselves. Ownership rule: once bytes are stored, nothing writes them
// again, except the exchange that published them, and only after its
// own Expire has deleted the key. So a read is read-only and valid until
// its publisher's Expire; an overwrite or Delete of its key replaces or
// drops the slice wholesale and leaves a retained read intact.
package kvstore

import (
	"slices"
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

// Set stores val itself (no copy) under key and charges the transfer
// to clk.
func (s *Store) Set(clk *vclock.Clock, key string, val []byte) {
	s.pipe.Charge(clk, "set", key, len(val), s.pipe.TransferTime(len(val)))

	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = val
	s.cSets.Inc()
	s.cBytesWritten.Add(int64(len(val)))
}

// Get returns the value under key (read-only, see the package
// comment). The round trip is charged to clk whether or not the key
// exists.
func (s *Store) Get(clk *vclock.Clock, key string) ([]byte, bool) {
	s.mu.Lock()
	val, ok := s.data[key]
	s.mu.Unlock()
	s.cGets.Inc()

	if !ok {
		s.cMisses.Inc()
		s.pipe.Charge(clk, "get", key, 0, s.pipe.RTT())
		return nil, false
	}
	s.cBytesRead.Add(int64(len(val)))
	s.pipe.Charge(clk, "get", key, len(val), s.pipe.TransferTime(len(val)))
	return val, true
}

// collect reads the values of keys into out, bumping the get/miss/bytes
// counters, and returns the total bytes returned. It performs no
// charging: the caller charges one pipelined transfer.
func (s *Store) collect(keys []string, out [][]byte) int {
	total := 0
	s.mu.Lock()
	for i, key := range keys {
		val, ok := s.data[key]
		s.cGets.Inc()
		if !ok {
			s.cMisses.Inc()
			continue
		}
		out[i] = val
		total += len(val)
		s.cBytesRead.Add(int64(len(val)))
	}
	s.mu.Unlock()
	return total
}

// firstKey labels a batched operation for fault injection; the batch's
// virtual instant disambiguates batches sharing a first key.
func firstKey(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// MGetViewInto fetches several keys in one pipelined request, a single
// request latency plus the bandwidth cost of all returned values, and
// writes the stored values into out (read-only, like Get's). out is
// resized, reallocating only when its capacity is short, and every
// entry is reset before the reads, so missing keys yield nil. Pass the
// returned slice back on the next call to reuse its capacity: the
// steady-state pull loops allocate nothing here.
func (s *Store) MGetViewInto(clk *vclock.Clock, keys []string, out [][]byte) [][]byte {
	out = slices.Grow(out[:0], len(keys))[:len(keys)]
	clear(out)
	total := s.collect(keys, out)
	s.pipe.Charge(clk, "mget", firstKey(keys), total, s.pipe.TransferTime(total))
	return out
}

// PeekViewsInto is MGetViewInto without any of the request: no virtual
// time, no counter, no fault draw, no span. It is simulator-side access
// for host work shared between callers that each pay for their own
// charged read (the parameter server decodes a lock-step pull window
// once for all replicas; each replica still issues its MGetViewInto).
// Missing keys yield nil; the views are read-only like every read.
func (s *Store) PeekViewsInto(keys []string, out [][]byte) [][]byte {
	out = slices.Grow(out[:0], len(keys))[:len(keys)]
	s.mu.Lock()
	for i, key := range keys {
		out[i] = s.data[key]
	}
	s.mu.Unlock()
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

// Len reports the number of stored keys without charging time (it is a
// harness-side observability call, not a data-path operation).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Link returns the network link used by the store, so callers can
// estimate transfer times without performing operations.
func (s *Store) Link() netmodel.Link { return s.pipe.Link() }

// TransferTime is a convenience passthrough for estimating the cost of a
// hypothetical transfer of n bytes through this store's link.
func (s *Store) TransferTime(n int) time.Duration { return s.pipe.TransferTime(n) }
