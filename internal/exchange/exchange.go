// Package exchange is the pluggable gradient-exchange subsystem: it
// owns how per-step model updates move between workers. The paper's
// MLLess design routes every update through a low-latency KV tier — the
// "indirect-communication tax" of FaaS platforms whose functions cannot
// open connections to each other (§2, §3.2). That parameter-server
// pattern is one point in a larger design space: "Towards Demystifying
// Serverless ML Training" shows the exchange topology (parameter server
// vs AllReduce through shared storage) is the dominant term in
// serverless training cost. This package abstracts the exchange behind
// one interface with two deterministic implementations:
//
//   - ParamServer: the paper's KV path, extracted from the core
//     engine verbatim. Byte-identical traces and bit-identical loss
//     histories to the pre-extraction engine are a pinned invariant.
//   - TreeReduce: hierarchical fan-in over object storage with a
//     configurable fan-out (O(log P) rounds, O(P) requests).
//
// The engine (internal/core) drives whichever strategy a job selects
// through the same per-step state machine: Publish after compute,
// Rounds/RunRound reduction phases between the compute and pull halves,
// Pull at sync points. Both strategies compose with the ISP significance
// filter (they move whatever the filter emits) and with fault injection
// (time lost to reclamation is recharged by the engine's recovery path).
//
// Key namespaces: ParamServer stores update payloads in the KV store
// under <job>/upd/<step>/<worker> — exactly the engine's historical
// protocol keys. The tree keeps that name as the update's protocol
// identity (announcements, diagnostics) but moves payload bytes through
// a per-job object-store bucket: partial sums at
// s<step>/l<level>/<position>, the total at s<step>/root.
//
// Charging: KV and object-store traffic is charged through the shared
// substrate pipelines (per-stream bandwidth, NIC sharing, max-of-
// branches fan-out — see objstore.GetMultiViewInto). Reduction arithmetic is
// charged through Env.Charge at 2 effective flops per folded
// coordinate, mirroring the engine's apply-side constant. The tree's
// request traffic is billed per object-store request class (BillInto),
// because unlike the mini-batch traffic it differs across strategies.
package exchange

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"mlless/internal/cost"
	"mlless/internal/kvstore"
	"mlless/internal/objstore"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Strategy kinds (Spec.Exchange).
const (
	// KindParamServer is the paper's KV-mediated parameter-server
	// exchange, the default.
	KindParamServer = "ps"
	// KindTree is hierarchical tree reduction through object storage.
	KindTree = "tree"
)

// DefaultTreeFanout is the tree strategy's fan-in degree when the job
// leaves it unset.
const DefaultTreeFanout = 4

// Validation errors.
var (
	// ErrUnknownKind reports an unrecognized strategy name.
	ErrUnknownKind = errors.New("exchange: unknown strategy")
	// ErrBadFanout reports a nonsensical tree fan-out.
	ErrBadFanout = errors.New("exchange: tree fan-out must be >= 2 (or 0 for the default)")
)

// Validate checks a (kind, fanout) pair without building a strategy.
// The zero fanout selects DefaultTreeFanout.
func Validate(kind string, fanout int) error {
	switch kind {
	case KindParamServer, KindTree:
	default:
		return fmt.Errorf("%w %q (want %s or %s)",
			ErrUnknownKind, kind, KindParamServer, KindTree)
	}
	if kind == KindTree && fanout != 0 && fanout < 2 {
		return fmt.Errorf("%w, got %d", ErrBadFanout, fanout)
	}
	return nil
}

// Env is everything a strategy needs from the engine: the substrates it
// moves bytes through, the job's namespaces, and the compute-charging
// hook. The engine builds one Env per job during setup.
type Env struct {
	// KV is the low-latency exchange tier (the parameter-server medium).
	KV *kvstore.Store
	// Obj is the object store the tree moves payloads through.
	Obj *objstore.Store
	// Reg is the unified metrics registry ("xchg.*" counters).
	Reg *trace.Registry
	// NS is the job's key-namespace prefix (the job id).
	NS string
	// Bucket is the job-private object-store bucket for the tree's
	// traffic; Teardown drops it.
	Bucket string
	// Dim is the model's parameter count, at least 1: the length of
	// every replica a pulled update is applied to. New refuses an Env
	// without it.
	Dim int
	// Workers is the initial pool size (per-worker state allocation).
	Workers int
	// Fanout is the tree strategy's fan-in degree (0 = default).
	Fanout int
	// Charge advances a worker's clock by the virtual duration of flops
	// floating-point operations (the engine's compute model).
	Charge func(clk *vclock.Clock, worker int, flops float64)
}

// PullCtx carries one worker's pull-and-apply pass. The engine owns one
// per worker and reuses it every sync point; Keys and Vals are scratch
// the strategy grows in place, so the steady-state pull allocates
// nothing.
type PullCtx struct {
	// Worker is the pulling worker's id; Clock is its instance clock.
	Worker int
	Clock  *vclock.Clock
	// The pull window (FromStep, Step]: under per-step synchronization
	// FromStep = Step-1. Collectives require a single-step window.
	FromStep, Step int
	// ActiveIDs are the active workers' ids in pool order; a worker's
	// position in this slice is its collective rank.
	ActiveIDs []int
	// Params is the worker's dense replica the pull streams into.
	Params sparse.Dense
	// OwnSig is the significant update this worker published this step.
	// Collectives subtract it after applying the reduced total, because
	// the worker already applied its full local update at compute time.
	OwnSig *sparse.Vector
	// ReadyAt is the instant every reduction-round write is visible;
	// collectives wait for it before reading reduced data.
	ReadyAt time.Duration
	// Announced lists the drained announcements, for the missing-update
	// diagnostic; AnnouncedSet formats their keys only when it fires.
	Announced []Announcement
	// Keys and Vals are per-worker scratch owned by the strategy.
	Keys []string
	Vals [][]byte
}

// Exchange is one gradient-exchange strategy. Implementations are
// deterministic: driven with the same job on the same cluster they
// produce bit-identical arithmetic and byte-identical traces, whichever
// driver (seq or par) runs the phases.
type Exchange interface {
	// Collective reports whether the strategy needs reduction rounds
	// between the publish and pull halves of a step. The engine keeps
	// the historical parameter-server code path byte-identical by gating
	// every new step on this.
	Collective() bool
	// UpdateKey names worker's step update in the job's protocol
	// namespace — the identity announcements carry.
	UpdateKey(step, worker int) string
	// Publish moves a worker's significant update into the exchange
	// medium and returns the update's canonical encoding. The strategy
	// owns that buffer, and the medium may hold it until Expire: the
	// returned payload is read-only to the caller, and valid only until
	// the step's Expire. scratch is unused; the layer replay of the
	// benchmark module still passes one. activeIDs is nil unless
	// Collective.
	Publish(clk *vclock.Clock, worker, step int, sig *sparse.Vector, activeIDs []int, scratch []byte) ([]byte, error)
	// Rounds returns how many reduction phases a p-worker pool needs
	// between publish and pull (0 for non-collectives).
	Rounds(p int) int
	// RunRound executes one worker's part of reduction round r. readyAt
	// is the pool-wide instant at which every previous phase's write is
	// visible; workers with work this round wait for it first.
	RunRound(clk *vclock.Clock, worker, step, round int, activeIDs []int, readyAt time.Duration) error
	// Pull applies the window's peer updates to the worker's replica and
	// returns the coordinate count applied (the engine charges apply
	// compute on it).
	Pull(p *PullCtx) (int, error)
	// PullKeys applies an explicit, already-resolved update-key list —
	// the async schedule's pull path, valid for non-collectives only.
	// It returns the (possibly grown) view scratch and the coordinate
	// count applied.
	PullKeys(clk *vclock.Clock, keys []string, vals [][]byte, params sparse.Dense) ([][]byte, int, error)
	// Expire drops step's exchange data for the given active ids,
	// charging the janitor clock (server-side TTL: no worker time).
	Expire(clk *vclock.Clock, step int, ids []int)
	// Teardown releases medium-side state at end of job (bucket drop).
	Teardown()
	// BillInto adds the strategy's request charges to the job's bill.
	BillInto(m *cost.Meter)
}

// New builds the strategy kind names against env.
func New(kind string, env Env) (Exchange, error) {
	if err := Validate(kind, env.Fanout); err != nil {
		return nil, err
	}
	if env.Dim < 1 {
		return nil, fmt.Errorf("exchange: model dimension %d, want at least 1", env.Dim)
	}
	if kind == KindParamServer {
		return newParamServer(env), nil
	}
	return newTreeReduce(env), nil
}

// Announcement is one drained availability announcement: Worker has
// published its Step update.
type Announcement struct{ Step, Worker int }

// AnnouncedSet renders the update keys (named by key) the drained
// announcements promise, sorted and deduplicated, for the
// missing-update diagnostic.
func AnnouncedSet(key func(step, worker int) string, announced []Announcement) string {
	if len(announced) == 0 {
		return "none"
	}
	keys := make([]string, len(announced))
	for i, a := range announced {
		keys[i] = key(a.Step, a.Worker)
	}
	sort.Strings(keys)
	return "[" + strings.Join(slices.Compact(keys), " ") + "]"
}

// updateKey formats <ns>/upd/<step>/<worker>, both strategies' update
// key, allocating only the string itself (fmt boxes its arguments).
func updateKey(ns string, step, worker int) string {
	b := append(make([]byte, 0, 64), ns...)
	b = strconv.AppendInt(append(b, "/upd/"...), int64(step), 10)
	b = strconv.AppendInt(append(b, '/'), int64(worker), 10)
	return string(b)
}

// posOf returns worker's collective rank: its position in the active-id
// slice.
func posOf(ids []int, worker int) int {
	for i, id := range ids {
		if id == worker {
			return i
		}
	}
	return -1
}
