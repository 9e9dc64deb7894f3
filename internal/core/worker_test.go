package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mlless/internal/fit"
)

func TestPhaseJoinsAllErrors(t *testing.T) {
	// A phase where several workers fail must report every failure, not
	// just the lowest-id one: under aggressive fault injection the first
	// error is often a symptom and a later one the cause. Both drivers
	// share the contract.
	ws := []*Worker{{id: 0}, {id: 1}, {id: 2}}
	err0 := errors.New("worker 0 exploded")
	err2 := errors.New("worker 2 exploded")
	for _, drv := range []driver{seqDriver{}, &parDriver{}} {
		err := drv.Phase(ws, func(w *Worker) error {
			switch w.id {
			case 0:
				return err0
			case 2:
				return err2
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%T: phase with two failing workers returned nil", drv)
		}
		if !errors.Is(err, err0) || !errors.Is(err, err2) {
			t.Fatalf("%T: joined error lost a worker failure: %v", drv, err)
		}
		if err := drv.Phase(ws, func(*Worker) error { return nil }); err != nil {
			t.Fatalf("%T: clean phase returned %v", drv, err)
		}
		drv.Close()
	}
}

// pullTestEngine builds a set-up engine without running a schedule, so
// tests can drive individual worker states directly.
func pullTestEngine(t *testing.T, workers int) (*Cluster, *engine) {
	t.Helper()
	cl, job := testPMFJob(t, workers, Spec{MaxSteps: 4})
	job.Spec = job.Spec.withDefaults()
	e := &engine{
		cl:       cl,
		job:      job,
		id:       cl.nextJobID(""),
		smoother: fit.NewEWMA(LossAlpha),
	}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	return cl, e
}

func TestPullErrorNamesAnnouncedSet(t *testing.T) {
	// A missing peer update is the classic lost-write symptom; the error
	// must name both the absent key and the announce-derived expected set,
	// so the mismatch between "promised" and "present" is visible in one
	// line.
	cl, e := pullTestEngine(t, 2)

	// Worker 1 announces its step-1 update but never writes the key.
	w1 := e.workers[1]
	if err := cl.Broker.PublishFanout(&w1.inst.Clock, e.annExchange(),
		announce{Worker: 1, Step: 1, Bytes: 42}.encode()); err != nil {
		t.Fatal(err)
	}

	w0 := e.workers[0]
	c := &stepCtx{step: 1, fromStep: 0, toStep: 1, active: e.workers, segStart: w0.inst.Clock.Now()}
	err := e.stepPull(w0, c)
	if err == nil {
		t.Fatal("pull of an unwritten update succeeded")
	}
	missing := e.updKey(1, 1)
	if !strings.Contains(err.Error(), "missing peer update "+missing) {
		t.Fatalf("error does not name the missing key %s: %v", missing, err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("announced: [%s]", missing)) {
		t.Fatalf("error does not surface the announced set: %v", err)
	}
}

func TestPullErrorWithEmptyAnnouncedSet(t *testing.T) {
	// No announcements at all (e.g. a dropped fanout) renders as "none"
	// rather than an empty bracket pair.
	_, e := pullTestEngine(t, 2)
	w0 := e.workers[0]
	c := &stepCtx{step: 1, fromStep: 0, toStep: 1, active: e.workers, segStart: w0.inst.Clock.Now()}
	err := e.stepPull(w0, c)
	if err == nil {
		t.Fatal("pull of an unwritten update succeeded")
	}
	if !strings.Contains(err.Error(), "(announced: none)") {
		t.Fatalf("empty announced set not rendered as none: %v", err)
	}
}
