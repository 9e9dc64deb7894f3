// Package objstore simulates the serverless object storage service (IBM
// COS in the paper) that holds dataset mini-batches and, for the PyWren
// baseline, carries every intermediate result. Compared to the key-value
// store it has much higher first-byte latency, which is precisely why a
// non-specialized serverless design that shuffles updates through object
// storage is "dramatically inefficient" (§6.2).
//
// Link charging, tracing and counters delegate to the shared substrate
// pipeline (package substrate); the pipeline is built without a fault
// domain because the paper's failure modes live on the KV store, the
// broker and the FaaS control plane, not on COS.
//
// The store copies nothing: Put keeps the caller's slice,
// and every read (Get, GetRangeView, GetMultiViewInto, PeekView) returns
// the stored bytes themselves. The ownership rule is package kvstore's:
// once bytes are stored, nothing writes them again, except the exchange
// that published them, and only after its own Expire has deleted the
// key. So a read is read-only and valid until its publisher's Expire
// (staged datasets never expire); an overwrite or Delete replaces or
// drops the slice wholesale and leaves a retained read intact.
package objstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mlless/internal/netmodel"
	"mlless/internal/substrate"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// ErrNotFound is returned when a requested object does not exist.
var ErrNotFound = errors.New("objstore: object not found")

// Store is a simulated object storage service with bucket/key namespaces.
// It is safe for concurrent use.
type Store struct {
	pipe *substrate.Pipeline

	mu      sync.Mutex
	buckets map[string]map[string][]byte

	// base, when non-nil, is a read-only lower layer: lookups that miss
	// this store's own buckets fall through to base, while writes and
	// deletes stay in this store (see Fork).
	base *Store

	// Counters live in the unified registry under "obj.*".
	cPuts, cGets, cDeletes, cLists, cBytesRead, cBytesWritten *trace.Counter
}

// New returns an empty store reached through link, with a private
// metrics registry.
func New(link netmodel.Link) *Store {
	return NewWithRegistry(link, trace.NewRegistry())
}

// NewWithRegistry returns an empty store whose counters live in the
// given unified registry under "obj.*".
func NewWithRegistry(link netmodel.Link, reg *trace.Registry) *Store {
	pipe := substrate.New(substrate.Config{
		Link:     link,
		Cat:      trace.CatObj,
		KeyLabel: "key",
		Domain:   substrate.DomainNone,
	}, reg)
	return &Store{
		pipe:          pipe,
		buckets:       make(map[string]map[string][]byte),
		cPuts:         pipe.Counter("obj.puts"),
		cGets:         pipe.Counter("obj.gets"),
		cDeletes:      pipe.Counter("obj.deletes"),
		cLists:        pipe.Counter("obj.lists"),
		cBytesRead:    pipe.Counter("obj.bytes_read"),
		cBytesWritten: pipe.Counter("obj.bytes_written"),
	}
}

// Registry returns the metrics registry the store's counters live in.
func (s *Store) Registry() *trace.Registry { return s.pipe.Registry() }

// Fork returns a new store layered over s: reads that miss the
// fork's own buckets fall through to s, while every write and delete
// lands in the fork, leaving s untouched. Counters and link charging go
// to the fork's own pipeline under reg, so a forked execution meters
// its object traffic privately. The fork holds no tracer.
//
// The fall-through is a snapshot view in the same sense as PeekView:
// it is safe as long as s is not written concurrently with the fork's
// reads, which is the sandbox contract — the shared store only holds
// staged datasets while forked jobs run. Deletes only mask objects the
// fork itself wrote; forked jobs never delete base objects (datasets
// are read-only; scratch buckets are job-namespaced and live in the
// fork).
func (s *Store) Fork(reg *trace.Registry) *Store {
	f := NewWithRegistry(s.pipe.Link(), reg)
	f.base = s
	return f
}

// lookup resolves bucket/key through the overlay chain.
func (s *Store) lookup(bucket, key string) ([]byte, bool) {
	s.mu.Lock()
	val, ok := s.buckets[bucket][key]
	s.mu.Unlock()
	if !ok && s.base != nil {
		return s.base.lookup(bucket, key)
	}
	return val, ok
}

// label names bucket/key in a span. The store draws no faults, so only
// the tracer reads labels, and an untraced operation builds none.
func (s *Store) label(bucket, key string) string {
	if !s.pipe.Enabled() {
		return ""
	}
	return bucket + "/" + key
}

// SetTracer installs (or, with nil, removes) a tracer recording one
// span per operation on the calling clock's track. Do not call
// concurrently with operations; the engine installs it during job setup
// and removes it at teardown.
func (s *Store) SetTracer(tr *trace.Tracer) { s.pipe.SetTracer(tr) }

// Put stores val itself (no copy) as bucket/key, creating the bucket
// on demand.
func (s *Store) Put(clk *vclock.Clock, bucket, key string, val []byte) {
	s.pipe.Charge(clk, "put", s.label(bucket, key), len(val), s.pipe.TransferTime(len(val)))

	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string][]byte)
		s.buckets[bucket] = b
	}
	b[key] = val
	s.cPuts.Inc()
	s.cBytesWritten.Add(int64(len(val)))
}

// Get returns the object at bucket/key (read-only, see the package
// comment).
func (s *Store) Get(clk *vclock.Clock, bucket, key string) ([]byte, error) {
	val, ok := s.lookup(bucket, key)
	s.cGets.Inc()

	if !ok {
		s.pipe.ChargeUntraced(clk, "get", s.label(bucket, key), s.pipe.RTT())
		return nil, fmt.Errorf("get %s/%s: %w", bucket, key, ErrNotFound)
	}
	s.cBytesRead.Add(int64(len(val)))
	s.pipe.Charge(clk, "get", s.label(bucket, key), len(val), s.pipe.TransferTime(len(val)))
	return val, nil
}

// GetRangeView returns a zero-copy view of length bytes at offset off
// of the object at bucket/key — an HTTP ranged read: one request that
// pays the first-byte latency plus the transfer of just the requested
// range, the access pattern of the columnar shard tier (one batch
// block per step out of a multi-batch shard). A missing object or a
// range outside it costs one round trip and errors.
func (s *Store) GetRangeView(clk *vclock.Clock, bucket, key string, off, length int) ([]byte, error) {
	val, ok := s.lookup(bucket, key)
	s.cGets.Inc()

	if !ok {
		s.pipe.ChargeUntraced(clk, "getrange", s.label(bucket, key), s.pipe.RTT())
		return nil, fmt.Errorf("getrange %s/%s: %w", bucket, key, ErrNotFound)
	}
	if off < 0 || length < 0 || off+length > len(val) {
		s.pipe.ChargeUntraced(clk, "getrange", s.label(bucket, key), s.pipe.RTT())
		return nil, fmt.Errorf("getrange %s/%s: range [%d,%d) outside %d-byte object",
			bucket, key, off, off+length, len(val))
	}
	s.cBytesRead.Add(int64(length))
	s.pipe.Charge(clk, "getrange", s.label(bucket, key), length, s.pipe.TransferTime(length))
	return val[off : off+length], nil
}

// PeekView returns a zero-copy view of bucket/key without charging any
// virtual time: simulator-side access for caches that parse an object
// once while billing every read through Get/GetRangeView
// (dataset.ShardCache's parse-once bookkeeping).
func (s *Store) PeekView(bucket, key string) ([]byte, bool) {
	return s.lookup(bucket, key)
}

// streamBandwidth returns the effective per-stream bytes/second of n
// concurrent transfers: each stream sustains at most the store's
// per-stream rate, and together they cannot exceed the caller's NIC
// line rate (every function and VM in the deployment has a 1 Gbit/s
// NIC).
func (s *Store) streamBandwidth(n int) float64 {
	bw := s.pipe.Link().BandwidthBps
	if bw <= 0 {
		return 0
	}
	if agg := netmodel.GbpsNIC / float64(n); n > 1 && agg < bw {
		return agg
	}
	return bw
}

// streamTime is TransferTime under the per-stream bandwidth of an
// n-way concurrent transfer.
func (s *Store) streamTime(n, bytes int) time.Duration {
	d := s.pipe.Link().Latency
	if bw := s.streamBandwidth(n); bw > 0 && bytes > 0 {
		d += time.Duration(float64(bytes) / bw * float64(time.Second))
	}
	return d
}

// GetMultiViewInto reads bucket/keys[i] as concurrent streams and
// returns zero-copy views of the stored objects, writing into out
// (resized, reallocating only when its capacity is short; pass the
// returned slice back to reuse it). Missing keys yield nil entries and
// are charged one round trip each. Each branch pays the first-byte
// latency, the streams share the caller's NIC, and the clock advances by
// the slowest branch.
func (s *Store) GetMultiViewInto(clk *vclock.Clock, bucket string, keys []string, out [][]byte) [][]byte {
	out = slices.Grow(out[:0], len(keys))[:len(keys)]
	if len(keys) == 0 {
		s.pipe.Charge(clk, "mget", s.label(bucket, ""), 0, s.pipe.TransferTime(0))
		return out
	}

	for i, key := range keys {
		out[i], _ = s.lookup(bucket, key)
	}

	start := clk.Now()
	var max time.Duration
	for i, key := range keys {
		label := s.label(bucket, key)
		s.cGets.Inc()
		var base time.Duration
		if out[i] == nil {
			base = s.pipe.RTT()
		} else {
			base = s.streamTime(len(keys), len(out[i]))
			s.cBytesRead.Add(int64(len(out[i])))
		}
		cost := s.pipe.Cost("mget", label, start, base)
		if cost > max {
			max = cost
		}
		if s.pipe.Enabled() {
			s.pipe.TraceRange(clk, "mget", label, start, start+cost, base, len(out[i]))
		}
	}
	clk.Advance(max)
	return out
}

// Delete removes bucket/key. Deleting a missing object is not an error,
// mirroring S3/COS semantics.
func (s *Store) Delete(clk *vclock.Clock, bucket, key string) {
	s.pipe.ChargeUntraced(clk, "del", s.label(bucket, key), s.pipe.RTT())

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.buckets[bucket], key)
	s.cDeletes.Inc()
}

// List returns the sorted keys in bucket with the given prefix.
func (s *Store) List(clk *vclock.Clock, bucket, prefix string) []string {
	s.pipe.ChargeUntraced(clk, "list", s.label(bucket, prefix), s.pipe.RTT())

	s.cLists.Inc()
	seen := make(map[string]bool)
	for layer := s; layer != nil; layer = layer.base {
		layer.mu.Lock()
		for k := range layer.buckets[bucket] {
			if strings.HasPrefix(k, prefix) {
				seen[k] = true
			}
		}
		layer.mu.Unlock()
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DeleteBucket drops a whole bucket (experiment teardown).
func (s *Store) DeleteBucket(bucket string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.buckets, bucket)
}
