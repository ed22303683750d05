package serving

import (
	"math"
	"sync"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/device"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// liveQuery is one in-flight query inside the live cluster; its Reply is the
// chan Response the caller waits on.
type liveQuery = device.Query

// forever is the wake-up time of a wait that only an event ends.
const forever = time.Duration(math.MaxInt64)

// clock is the live driver's time source: durations since server start,
// and waits that a wake-up or a stop interrupts.
type clock interface {
	now() time.Duration
	// sleep blocks until the clock reaches until, wake delivers, or stop
	// closes.
	sleep(until time.Duration, wake, stop <-chan struct{})
	// margin is how early a worker wakes from a batching wait.
	margin() time.Duration
}

// wallClock is the clock of a deployed server.
type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

// margin is 5ms: the simulator can cut waits to the exact T_max_wait edge;
// on wall clocks, scheduler jitter would turn that into misses. Inside the
// margin a worker re-decides without sleeping, so it acts on the edge.
func (wallClock) margin() time.Duration { return 5 * time.Millisecond }

func (c wallClock) sleep(until time.Duration, wake, stop <-chan struct{}) {
	if until == forever {
		select {
		case <-wake:
		case <-stop:
		}
		return
	}
	d := until - c.now()
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-wake:
	case <-stop:
	}
}

// liveWorker drives one device model on the server's clock: a goroutine
// performs the model's actions, and one mutex serializes the model between
// it and the arrival, control and fault paths. Executing a batch is a wait
// until its profiled completion time; arrivals, hosting changes, failures
// and shutdown interrupt any wait.
type liveWorker struct {
	sys *Server
	id  int

	mu     sync.Mutex
	dev    *device.Device
	closed bool

	notify chan struct{}
	stopc  chan struct{}
}

func newLiveWorker(s *Server, dev cluster.Device, policy batching.Policy) *liveWorker {
	return &liveWorker{
		sys: s,
		id:  dev.ID,
		dev: device.New(device.Config{
			Device:    dev,
			Policy:    policy,
			SLOs:      s.slos,
			ExecNoise: s.cfg.ExecNoiseFrac,
			RNG:       numeric.NewRNG(s.cfg.Seed ^ uint64(dev.ID+1)),
		}),
		notify: make(chan struct{}, 1),
		stopc:  make(chan struct{}),
	}
}

func (w *liveWorker) wake() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// syncDepthLocked reports the current mailbox depth to the overload guard
// (a no-op when the guard is off). Caller holds w.mu; the guard's lock is a
// leaf, so the nesting is safe.
func (w *liveWorker) syncDepthLocked() {
	w.sys.guard.NoteDepth(w.id, w.dev.QueueLen())
}

// guardProfile snapshots the worker's hosting for the overload guard.
func (w *liveWorker) guardProfile() overload.DeviceProfile {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dev.GuardProfile()
}

func (w *liveWorker) hostedID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dev.HostedID()
}

func (w *liveWorker) loading(now time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dev.Loading(now)
}

// deviceState snapshots the worker for the tsdb sampler.
func (w *liveWorker) deviceState() tsdb.DeviceState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dev.Sample(w.sys.now())
}

// setHosted swaps the hosted variant, returning the queued queries that
// must be re-routed elsewhere.
func (w *liveWorker) setHosted(ref *allocator.VariantRef, loadDelay time.Duration) []liveQuery {
	w.mu.Lock()
	requeue := w.dev.SetHosted(ref, w.sys.now(), loadDelay)
	w.syncDepthLocked()
	w.mu.Unlock()
	if ref != nil {
		w.sys.sink.ModelLoad()
	}
	w.wake()
	return requeue
}

func (w *liveWorker) enqueue(q liveQuery) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.sys.drop(q, telemetry.CauseDraining)
		return
	}
	now := w.sys.now()
	if !w.dev.Enqueue(now, q) {
		// Routed before the table caught up with the failure; bounce back.
		w.mu.Unlock()
		w.sys.redispatch(q, telemetry.CauseStaleRoute)
		return
	}
	// The enqueue event is recorded under w.mu, so it precedes the batch
	// events the worker goroutine records after taking w.mu.
	//lint:allow lockorder established order liveWorker.mu → Tracer.mu and liveWorker.mu → Guard.mu (the episode stamp); both are leaf locks that never call back into serving
	w.sys.sink.Enqueue(now, &q, w.id)
	w.syncDepthLocked() //lint:allow lockorder established order liveWorker.mu → Guard.mu (same direction as Server.mu → Guard.mu); Guard methods are leaf locks that never call back into serving
	w.mu.Unlock()
	w.wake()
}

// fail kills the device and returns the stranded queries for re-dispatch:
// the queue and, at once, the in-flight batch.
func (w *liveWorker) fail() []device.Action {
	w.mu.Lock()
	stranded := w.dev.Fail(w.sys.now(), nil)
	w.syncDepthLocked()
	w.mu.Unlock()
	w.wake()
	return stranded
}

// recover brings the device back with an empty memory, reloading ref (the
// current plan's hosting for it, usually nil until the next re-allocation)
// with the full model-load delay.
func (w *liveWorker) recover(ref *allocator.VariantRef, loadDelay time.Duration) {
	w.mu.Lock()
	w.dev.Recover(ref, w.sys.now(), loadDelay)
	w.mu.Unlock()
	if ref != nil {
		w.sys.sink.ModelLoad()
	}
	w.wake()
}

func (w *liveWorker) shutdown() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.stopc)
	}
	w.mu.Unlock()
	w.wake()
}

// loop is the worker goroutine: complete the in-flight batch when its time
// comes, run the model's batching decision, perform its actions, and wait
// for the next thing to do.
func (w *liveWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	var acts []device.Action
	batchID := -1
	for {
		w.mu.Lock()
		// Any wake-up sent so far is visible under the lock; drop its token.
		select {
		case <-w.notify:
		default:
		}
		now := w.sys.now()
		if w.closed {
			acts = w.dev.Shutdown(acts[:0])
			w.syncDepthLocked()
			w.mu.Unlock()
			for _, a := range acts {
				w.sys.drop(a.Query, a.Cause)
			}
			return
		}
		var done []liveQuery
		var ran models.Variant
		until, running := w.dev.Running()
		if running && now >= until {
			done, ran = w.dev.Complete(now)
			running = false
		}
		acts = acts[:0]
		if !running {
			acts = w.dev.Evaluate(now, acts)
			w.syncDepthLocked()
		}
		w.mu.Unlock()

		for i := range done {
			w.sys.finish(now, &done[i], ran, w.id, batchID)
		}
		next := forever
		if running {
			next = until
		}
		sink := w.sys.sink
		for i := range acts {
			a := &acts[i]
			switch a.Kind {
			case device.Drop:
				w.sys.drop(a.Query, a.Cause)
			case device.Idle:
				sink.Idle()
			case device.Wait:
				sink.Wait()
				next = a.At - w.sys.clk.margin()
			case device.Load:
				next = a.At
			case device.Loaded:
				w.sys.rebuildTable()
			case device.Run:
				batchID = sink.Start(now, a.Batch, w.id)
				next = a.At
			}
		}
		w.sys.clk.sleep(next, w.notify, w.stopc)
	}
}
