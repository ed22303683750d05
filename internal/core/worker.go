package core

import (
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/device"
	"proteus/internal/simulation"
	"proteus/internal/telemetry"
)

// query is one inference request flowing through the system.
type query = device.Query

// worker drives one device model on the discrete-event engine: it performs
// the model's actions as simulation events. All methods run inside engine
// callbacks.
type worker struct {
	sys *System
	dev *device.Device

	wake    *simulation.Event // pending Wait/Load re-evaluation
	done    *simulation.Event // in-flight batch completion
	batchID int               // trace identity of the in-flight batch
	acts    []device.Action   // Evaluate's action buffer, reused

	// Cached method values, so scheduling allocates no closure.
	onWake, onDone func()
}

func newWorker(s *System, dev cluster.Device) *worker {
	w := &worker{sys: s, dev: device.New(device.Config{
		Device: dev,
		Policy: s.cfg.Batching(),
		SLOs:   s.slos,
	})}
	w.onWake = func() {
		w.wake = nil
		w.evaluate()
	}
	w.onDone = w.complete
	return w
}

// syncDepth reports the current mailbox depth to the overload guard (a
// no-op when the guard is off). Called after every model call that can
// change the queue, so the backpressure hysteresis and admission bound
// always see the true depth.
func (w *worker) syncDepth() {
	w.sys.guard.NoteDepth(w.dev.ID(), w.dev.QueueLen())
}

func (w *worker) cancelWake() {
	if w.wake != nil {
		w.wake.Cancel()
		w.wake = nil
	}
}

// setHosted installs a (possibly nil) variant with the given load delay and
// returns the queued queries for the caller to re-route.
func (w *worker) setHosted(ref *allocator.VariantRef, now, loadDelay time.Duration) []query {
	qs := w.dev.SetHosted(ref, now, loadDelay)
	w.afterHosting(ref)
	return qs
}

// afterHosting accounts a hosting change: the queue is gone, so is any
// pending wake-up, and a hosted variant is a model load.
func (w *worker) afterHosting(ref *allocator.VariantRef) {
	w.syncDepth()
	w.cancelWake()
	if ref != nil {
		w.sys.sink.ModelLoad()
	}
}

// enqueue admits a routed query and re-evaluates the batching decision.
func (w *worker) enqueue(q query) {
	now := w.sys.engine.Now()
	if !w.dev.Enqueue(now, q) {
		// Routed before the table caught up with the failure; bounce back.
		w.sys.requeue(now, q, telemetry.CauseStaleRoute)
		return
	}
	w.sys.sink.Enqueue(now, &q, w.dev.ID())
	w.syncDepth()
	w.evaluate()
}

// evaluate runs the model's batching decision and performs its actions. It
// is called on arrival, on batch completion, on load completion and on
// wake-up.
func (w *worker) evaluate() {
	now := w.sys.engine.Now()
	w.acts = w.dev.Evaluate(now, w.acts[:0])
	w.syncDepth()
	w.cancelWake()
	sink := w.sys.sink
	for i := range w.acts {
		a := &w.acts[i]
		switch a.Kind {
		case device.Drop:
			sink.Drop(now, &a.Query, a.Cause)
		case device.Idle:
			sink.Idle()
		case device.Wait:
			sink.Wait()
			w.wake = w.sys.engine.Schedule(a.At, w.onWake)
		case device.Load:
			w.wake = w.sys.engine.Schedule(a.At, w.onWake)
		case device.Run:
			w.batchID = sink.Start(now, a.Batch, w.dev.ID())
			w.done = w.sys.engine.Schedule(a.At, w.onDone)
		}
		// Loaded needs nothing: the engine's own load-complete event
		// re-admits the device to routing.
	}
}

// complete finishes the in-flight batch and re-evaluates.
func (w *worker) complete() {
	now := w.sys.engine.Now()
	w.done = nil
	batch, v := w.dev.Complete(now)
	for i := range batch {
		w.sys.sink.Finish(now, &batch[i], v.Accuracy, w.dev.ID(), w.batchID)
	}
	w.evaluate()
}

// fail kills the device: its completion event is cancelled (the hardware
// died mid-execution) and the stranded queries are returned for the system
// to requeue.
func (w *worker) fail() []device.Action {
	if w.done != nil {
		w.done.Cancel()
		w.done = nil
	}
	w.cancelWake()
	stranded := w.dev.Fail(w.sys.engine.Now(), nil)
	w.syncDepth()
	return stranded
}

// recover brings the device back with an empty memory, reloading ref with
// the full model-load delay.
func (w *worker) recover(ref *allocator.VariantRef, now time.Duration) {
	w.dev.Recover(ref, now, w.sys.cfg.ModelLoadDelay)
	w.afterHosting(ref)
	w.evaluate()
}
