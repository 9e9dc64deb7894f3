package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// The simulation driver: how the engine executes the per-worker state
// machines of one lookahead group (see lookahead.go for how groups are
// chosen). Both schedules hand the driver batches of workers whose
// virtual-time intervals provably cannot interact within the phase, so
// the driver is free to run them in any order — sequentially or on a
// goroutine pool — and the run's traces, loss histories and bills come
// out byte-identical either way. Determinism therefore never depends on
// the driver. The engine always runs the parallel driver; the
// sequential one is the oracle the differential tests compare it
// against (Job.drv).

// driver executes one phase — fn applied to every worker of a lookahead
// group. Implementations must run fn exactly once per worker, must not
// stop at the first failure (a later worker's error is often the cause
// of an earlier one's symptom under fault injection), and must join the
// collected errors in group order so multi-worker failures render
// identically whatever the execution interleaving was. Phase is never
// called concurrently on one driver; Close releases pool resources
// once the run is over.
type driver interface {
	// Phase runs fn for every worker in group and joins their errors in
	// group order.
	Phase(group []*Worker, fn func(*Worker) error) error
	// Close retires the driver; Phase must not be called afterwards.
	Close()
}

// seqDriver runs a group's workers one at a time on the calling
// goroutine, in the group's (clock, id) order.
type seqDriver struct{}

// Phase implements driver.
func (seqDriver) Phase(group []*Worker, fn func(*Worker) error) error {
	errs := make([]error, len(group))
	for i, w := range group {
		errs[i] = fn(w)
	}
	return errors.Join(errs...)
}

// Close implements driver.
func (seqDriver) Close() {}

// parDriver runs a group's workers on a persistent goroutine pool.
// Workers within a group are independent (the lookahead partition
// guarantees it) and the shared services are thread-safe, so the pool
// only changes wall-clock time, never results.
//
// The pool is lazily grown and persists across Phase calls, so the
// steady-state step spawns no goroutines and allocates nothing: each
// phase hands the resident helpers one reusable job descriptor and the
// calling goroutine steals work alongside them. A phase engages
// min(GOMAXPROCS, len(group)) executors — narrow cohorts
// (post-reclamation stragglers) stop paying idle-helper wakeups.
type parDriver struct {
	spawned int            // resident helper goroutines
	work    chan *phaseJob // helpers block here between phases
	job     phaseJob       // reusable descriptor (Phase is serialized)
}

// phaseJob is one phase's shared work-stealing state.
type phaseJob struct {
	group []*Worker
	fn    func(*Worker) error
	errs  []error
	next  atomic.Int64
	wg    sync.WaitGroup
}

// run steals workers until the group is drained.
func (j *phaseJob) run() {
	n := len(j.group)
	for {
		i := int(j.next.Add(1)) - 1
		if i >= n {
			return
		}
		j.errs[i] = j.fn(j.group[i])
	}
}

// Phase implements driver. The executor count is min(GOMAXPROCS,
// len(group)), but always at least two for a multi-worker group under
// the race detector, so it observes cross-worker interleavings even on
// a single-CPU host.
func (d *parDriver) Phase(group []*Worker, fn func(*Worker) error) error {
	n := len(group)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fn(group[0])
	}
	par := runtime.GOMAXPROCS(0)
	if raceEnabled && par < 2 {
		par = 2
	}
	if par > n {
		par = n
	}

	j := &d.job
	j.group, j.fn = group, fn
	if cap(j.errs) < n {
		j.errs = make([]error, n)
	}
	j.errs = j.errs[:n]
	for i := range j.errs {
		j.errs[i] = nil
	}
	j.next.Store(0)

	helpers := par - 1
	d.ensure(helpers)
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		d.work <- j
	}
	j.run()
	j.wg.Wait()

	err := errors.Join(j.errs...)
	j.group, j.fn = nil, nil
	return err
}

// ensure grows the resident helper pool to at least n goroutines.
func (d *parDriver) ensure(n int) {
	if d.spawned >= n {
		return
	}
	if d.work == nil {
		d.work = make(chan *phaseJob, runtime.GOMAXPROCS(0)+2)
	}
	for ; d.spawned < n; d.spawned++ {
		go func() {
			for j := range d.work {
				j.run()
				j.wg.Done()
			}
		}()
	}
}

// Close implements driver: resident helpers exit. Phase must not be
// called after Close.
func (d *parDriver) Close() {
	if d.work != nil {
		close(d.work)
		d.work = nil
		d.spawned = 0
	}
}
