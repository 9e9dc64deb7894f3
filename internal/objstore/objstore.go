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
package objstore

import (
	"errors"
	"fmt"
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

// SetTracer installs (or, with nil, removes) a tracer recording one
// span per operation on the calling clock's track. Do not call
// concurrently with operations; the engine installs it during job setup
// and removes it at teardown.
func (s *Store) SetTracer(tr *trace.Tracer) { s.pipe.SetTracer(tr) }

// Put stores a copy of val as bucket/key, creating the bucket on demand.
func (s *Store) Put(clk *vclock.Clock, bucket, key string, val []byte) {
	s.pipe.Charge(clk, "put", bucket+"/"+key, len(val), s.pipe.TransferTime(len(val)))
	cp := make([]byte, len(val))
	copy(cp, val)

	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string][]byte)
		s.buckets[bucket] = b
	}
	b[key] = cp
	s.cPuts.Inc()
	s.cBytesWritten.Add(int64(len(val)))
}

// Get returns a copy of the object at bucket/key.
func (s *Store) Get(clk *vclock.Clock, bucket, key string) ([]byte, error) {
	val, ok := s.lookup(bucket, key)
	var cp []byte
	if ok {
		cp = make([]byte, len(val))
		copy(cp, val)
	}
	s.cGets.Inc()

	if !ok {
		s.pipe.ChargeUntraced(clk, "get", bucket+"/"+key, s.pipe.RTT())
		return nil, fmt.Errorf("get %s/%s: %w", bucket, key, ErrNotFound)
	}
	s.cBytesRead.Add(int64(len(cp)))
	s.pipe.Charge(clk, "get", bucket+"/"+key, len(cp), s.pipe.TransferTime(len(cp)))
	return cp, nil
}

// GetRangeView returns a zero-copy view of length bytes at offset off
// of the object at bucket/key — an HTTP ranged read: one request that
// pays the first-byte latency plus the transfer of just the requested
// range, the access pattern of the columnar shard tier (one batch
// block per step out of a multi-batch shard). The view is safe to
// retain: Put copies on write and replaces stored slices wholesale, so
// a view is an immutable snapshot later writes never mutate. A missing
// object or a range outside it costs one round trip and errors.
func (s *Store) GetRangeView(clk *vclock.Clock, bucket, key string, off, length int) ([]byte, error) {
	val, ok := s.lookup(bucket, key)
	s.cGets.Inc()

	if !ok {
		s.pipe.ChargeUntraced(clk, "getrange", bucket+"/"+key, s.pipe.RTT())
		return nil, fmt.Errorf("getrange %s/%s: %w", bucket, key, ErrNotFound)
	}
	if off < 0 || length < 0 || off+length > len(val) {
		s.pipe.ChargeUntraced(clk, "getrange", bucket+"/"+key, s.pipe.RTT())
		return nil, fmt.Errorf("getrange %s/%s: range [%d,%d) outside %d-byte object",
			bucket, key, off, off+length, len(val))
	}
	s.cBytesRead.Add(int64(length))
	s.pipe.Charge(clk, "getrange", bucket+"/"+key, length, s.pipe.TransferTime(length))
	return val[off : off+length], nil
}

// PeekView returns a zero-copy view of bucket/key without charging any
// virtual time: simulator-side access for caches that parse an object
// once while billing every read through Get/GetRangeView
// (dataset.ShardCache's parse-once bookkeeping). The view follows the
// same immutable-snapshot contract as GetRangeView.
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

// PutMulti stores copies of vals[i] under bucket/keys[i], issuing the
// writes as concurrent streams: every branch pays the first-byte
// latency once, the streams share the caller's NIC, and the clock
// advances by the slowest branch — the upload half of a storage-mediated
// collective. keys and vals must have equal length.
func (s *Store) PutMulti(clk *vclock.Clock, bucket string, keys []string, vals [][]byte) {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("objstore: PutMulti with %d keys, %d values", len(keys), len(vals)))
	}
	if len(keys) == 0 {
		s.pipe.Charge(clk, "mput", bucket+"/", 0, s.pipe.TransferTime(0))
		return
	}
	start := clk.Now()
	var max time.Duration
	for i, key := range keys {
		label := bucket + "/" + key
		base := s.streamTime(len(keys), len(vals[i]))
		cost := s.pipe.Cost("mput", label, start, base)
		if cost > max {
			max = cost
		}
		if s.pipe.Enabled() {
			s.pipe.TraceRange(clk, "mput", label, start, start+cost, base, len(vals[i]))
		}
	}

	s.mu.Lock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string][]byte)
		s.buckets[bucket] = b
	}
	for i, key := range keys {
		cp := make([]byte, len(vals[i]))
		copy(cp, vals[i])
		b[key] = cp
		s.cPuts.Inc()
		s.cBytesWritten.Add(int64(len(vals[i])))
	}
	s.mu.Unlock()
	clk.Advance(max)
}

// GetMultiViewInto reads bucket/keys[i] as concurrent streams and
// returns zero-copy views of the stored objects, writing into out
// (resized, reallocating only when its capacity is short; pass the
// returned slice back to reuse it). Missing keys yield nil entries and
// are charged one round trip each. Views are safe to retain: Put copies
// on write and replaces stored slices wholesale, so a view is an
// immutable snapshot that later writes or deletes never mutate.
// Charging mirrors PutMulti: each branch pays the first-byte latency,
// the streams share the caller's NIC, and the clock advances by the
// slowest branch.
func (s *Store) GetMultiViewInto(clk *vclock.Clock, bucket string, keys []string, out [][]byte) [][]byte {
	out = resizeViews(out, len(keys))
	if len(keys) == 0 {
		s.pipe.Charge(clk, "mget", bucket+"/", 0, s.pipe.TransferTime(0))
		return out
	}

	for i, key := range keys {
		out[i], _ = s.lookup(bucket, key)
	}

	start := clk.Now()
	var max time.Duration
	for i, key := range keys {
		label := bucket + "/" + key
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

// Size returns the byte size of an object without transferring it
// (a HEAD request: one round trip).
func (s *Store) Size(clk *vclock.Clock, bucket, key string) (int, error) {
	s.pipe.ChargeUntraced(clk, "head", bucket+"/"+key, s.pipe.RTT())

	val, ok := s.lookup(bucket, key)
	if !ok {
		return 0, fmt.Errorf("head %s/%s: %w", bucket, key, ErrNotFound)
	}
	return len(val), nil
}

// Delete removes bucket/key. Deleting a missing object is not an error,
// mirroring S3/COS semantics.
func (s *Store) Delete(clk *vclock.Clock, bucket, key string) {
	s.pipe.ChargeUntraced(clk, "del", bucket+"/"+key, s.pipe.RTT())

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.buckets[bucket], key)
	s.cDeletes.Inc()
}

// List returns the sorted keys in bucket with the given prefix.
func (s *Store) List(clk *vclock.Clock, bucket, prefix string) []string {
	s.pipe.ChargeUntraced(clk, "list", bucket+"/"+prefix, s.pipe.RTT())

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

// Link returns the store's network link for time estimation.
func (s *Store) Link() netmodel.Link { return s.pipe.Link() }
