// Package device is the per-device serving state machine shared by the
// simulator (internal/core) and live mode (internal/serving): one queue, one
// hosted model variant, one batching policy and one executor. The model
// knows nothing about clocks and takes no locks. Its methods are given the
// current time and return the actions that follow — run this batch until
// t, wake at t, drop q with a cause, strand q with a cause — without
// performing them. The discrete-event engine and the live goroutine driver
// each perform them on their own clock, so the two engines differ only in
// how time passes.
package device

import (
	"math"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/overload"
	"proteus/internal/profiles"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Query is one inference request as a device sees it.
type Query struct {
	ID       uint64
	Family   int
	Arrival  time.Duration
	Deadline time.Duration
	Retries  int // failure re-dispatches so far; Retry caps them
	// Phase-decomposition timestamps: stamped at device enqueue and batch
	// formation, differenced into per-phase durations at completion. A
	// re-route restamps EnqueueAt, so admission absorbs the re-route wait.
	EnqueueAt, FormAt, ExecAt time.Duration
	// Reply is the driver's per-query payload (live mode's response
	// channel); the model never reads it.
	Reply any
}

// Kind says what an Action asks of the driver.
type Kind uint8

// Action kinds.
const (
	Drop   Kind = iota // Query leaves the system unserved, for Cause
	Strand             // Query goes back to the router, for Cause (see Retry)
	Run                // Batch started executing; call Complete at At
	Wait               // the policy holds the queue; Evaluate again at At or on arrival
	Idle               // the policy found nothing to run; no wake-up is pending
	Load               // the hosted model loads until At; Evaluate again then
	Loaded             // the model load finished; the device may rejoin routing
)

// Action is one thing a driver must do after a model call.
type Action struct {
	Kind  Kind
	Cause telemetry.Cause
	At    time.Duration
	Query Query
	Batch []Query
}

// Config builds a Device.
type Config struct {
	Device cluster.Device
	Policy batching.Policy
	SLOs   []time.Duration // per family
	// ExecNoise, when positive, scales each batch's latency by
	// 1 + ExecNoise·N(0,1) drawn from RNG, mimicking hardware variance.
	ExecNoise float64
	RNG       *numeric.RNG
}

// Device is one device's serving state. It is not safe for concurrent use.
type Device struct {
	cfg Config

	hosted       *allocator.VariantRef
	maxBatch     int // SLO- and memory-capped batch for the hosted variant
	memBatch     int // memory-only cap
	loadingUntil time.Duration
	down         bool
	loads        int

	queue    []Query
	inflight []Query        // the executing batch,
	running  models.Variant // the variant it runs
	doneAt   time.Duration  // and when it completes

	// Execution-time accounting for the tsdb utilization series.
	busyAccum, busyStart time.Duration
	lastBatch            int

	// Arrival-rate estimation for rate-planned batching policies (Nexus):
	// per-second counts folded into an EWMA.
	rateEWMA   float64
	rateBucket int64 // second index of the open bucket
	rateCount  int

	// The policy's view of the queue, reused so a decision allocates
	// nothing of its own.
	view []batching.Query
	ctx  batching.Context
	proc func(int) time.Duration
}

// New returns an up device hosting nothing.
func New(cfg Config) *Device {
	d := &Device{cfg: cfg}
	d.proc = d.procTime
	return d
}

// ID is the device's index in the cluster.
func (d *Device) ID() int { return d.cfg.Device.ID }

// Down reports whether the device has failed.
func (d *Device) Down() bool { return d.down }

// Loading reports whether the hosted model is still loading at now.
func (d *Device) Loading(now time.Duration) bool { return now < d.loadingUntil }

// LoadedAt is when the hosted model's load completes.
func (d *Device) LoadedAt() time.Duration { return d.loadingUntil }

// QueueLen is the number of queued, not executing, queries.
func (d *Device) QueueLen() int { return len(d.queue) }

// Loads counts model loads.
func (d *Device) Loads() int { return d.loads }

// Running returns the executing batch's completion time, if one runs.
func (d *Device) Running() (time.Duration, bool) { return d.doneAt, d.inflight != nil }

// HostedID is the hosted variant's ID, "" when idle.
func (d *Device) HostedID() string {
	if d.hosted == nil {
		return ""
	}
	return d.hosted.Variant.ID()
}

// procTime is the batch latency of the hosted variant on this device.
func (d *Device) procTime(b int) time.Duration {
	return profiles.Latency(d.cfg.Device.Spec, d.hosted.Variant, b)
}

// SetHosted installs a (possibly nil) variant, resetting batching state. A
// variant loads for loadDelay before it can execute. The queued queries are
// returned for re-routing.
func (d *Device) SetHosted(ref *allocator.VariantRef, now, loadDelay time.Duration) []Query {
	qs := d.queue
	d.queue = nil
	d.hosted = ref
	d.cfg.Policy.Reset()
	if ref == nil {
		d.maxBatch, d.memBatch = 0, 0
		return qs
	}
	d.maxBatch = profiles.MaxBatch(d.cfg.Device.Spec, ref.Variant, d.cfg.SLOs[ref.Family])
	d.memBatch = profiles.MaxMemoryBatch(d.cfg.Device.Spec, ref.Variant)
	d.loadingUntil = 0
	if loadDelay > 0 {
		d.loadingUntil = now + loadDelay
	}
	d.loads++
	return qs
}

// Enqueue admits a routed query. It returns false when the device is down;
// the caller strands the query as a stale route.
func (d *Device) Enqueue(now time.Duration, q Query) bool {
	if d.down {
		return false
	}
	sec := int64(now / time.Second)
	if sec != d.rateBucket {
		// Fold closed buckets into the rate, decaying through empty seconds.
		const alpha = 0.3
		d.rateEWMA = alpha*float64(d.rateCount) + (1-alpha)*d.rateEWMA
		for s := d.rateBucket + 1; s < sec && s-d.rateBucket < 30; s++ {
			d.rateEWMA *= 1 - alpha
		}
		d.rateBucket = sec
		d.rateCount = 0
	}
	d.rateCount++
	q.EnqueueAt = now
	d.queue = append(d.queue, q)
	return true
}

// Evaluate runs the batching policy and appends the resulting actions to
// acts. Its Wait or Load replaces any earlier wake-up; without one, none is
// pending. Drivers call it on arrival, on batch completion, on load
// completion and on wake-up.
func (d *Device) Evaluate(now time.Duration, acts []Action) []Action {
	if d.inflight != nil || d.down {
		return acts
	}
	if d.hosted == nil || d.maxBatch < 1 {
		// Nothing runnable here; shed whatever was routed to us.
		acts = each(acts, Drop, telemetry.CauseNoRoute, d.queue)
		d.queue = d.queue[:0]
		return acts
	}
	if now < d.loadingUntil {
		return append(acts, Action{Kind: Load, At: d.loadingUntil})
	}
	if d.loadingUntil != 0 {
		d.loadingUntil = 0
		acts = append(acts, Action{Kind: Loaded})
	}
	// Queries that cannot complete within their SLO even executed alone
	// right now would only waste capacity (the client has timed out
	// regardless); they count as SLO violations.
	horizon := now + d.procTime(1)
	acts = d.dropWhere(acts, telemetry.CauseExpired, func(_ int, q *Query) bool { return q.Deadline < horizon })
	if len(d.queue) == 0 {
		return acts
	}

	d.view = d.view[:0]
	for _, q := range d.queue {
		d.view = append(d.view, batching.Query{Deadline: q.Deadline})
	}
	// The rate estimate is biased toward the open bucket when it already
	// exceeds the average (fast ramp-up).
	d.ctx = batching.Context{
		Now:         now,
		Queue:       d.view,
		MaxBatch:    d.maxBatch,
		MemBatch:    d.memBatch,
		ProcTime:    d.proc,
		ArrivalRate: math.Max(float64(d.rateCount), d.rateEWMA),
	}
	dec := d.cfg.Policy.Decide(&d.ctx)
	if len(dec.Drop) > 0 {
		next := 0 // dec.Drop holds ascending queue indices
		acts = d.dropWhere(acts, telemetry.CausePolicyDrop, func(i int, _ *Query) bool {
			if next < len(dec.Drop) && dec.Drop[next] == i {
				next++
				return true
			}
			return false
		})
	}
	switch dec.Action {
	case batching.Idle:
		acts = append(acts, Action{Kind: Idle})
	case batching.Wait:
		acts = append(acts, Action{Kind: Wait, At: max(dec.WakeAt, now)})
	case batching.Execute:
		acts = d.execute(now, min(dec.BatchSize, len(d.queue)), acts)
	}
	return acts
}

// dropWhere removes the queued queries drop picks, as drops for cause.
func (d *Device) dropWhere(acts []Action, cause telemetry.Cause, drop func(i int, q *Query) bool) []Action {
	keep := d.queue[:0]
	for i := range d.queue {
		if drop(i, &d.queue[i]) {
			acts = append(acts, Action{Kind: Drop, Cause: cause, Query: d.queue[i]})
		} else {
			keep = append(keep, d.queue[i])
		}
	}
	d.queue = keep
	return acts
}

// each appends one action of kind k for cause per query.
func each(acts []Action, k Kind, cause telemetry.Cause, qs []Query) []Action {
	for _, q := range qs {
		acts = append(acts, Action{Kind: k, Cause: cause, Query: q})
	}
	return acts
}

// execute starts the first b queued queries as one batch.
func (d *Device) execute(now time.Duration, b int, acts []Action) []Action {
	if b < 1 {
		return acts
	}
	batch := make([]Query, b)
	copy(batch, d.queue[:b])
	for i := range batch {
		// Formation and execution start coincide: the executor starts at
		// once, so batch_form is ~0 by design.
		batch[i].FormAt = now
		batch[i].ExecAt = now
	}
	d.queue = append(d.queue[:0], d.queue[b:]...)

	lat := d.procTime(b)
	if d.cfg.ExecNoise > 0 {
		noise := 1 + d.cfg.ExecNoise*d.cfg.RNG.NormFloat64()
		lat = time.Duration(math.Max(0, float64(lat)*noise))
	}
	d.inflight, d.running = batch, d.hosted.Variant
	d.busyStart, d.doneAt = now, now+lat
	d.lastBatch = b
	return append(acts, Action{Kind: Run, At: d.doneAt, Batch: batch})
}

// Complete finishes the executing batch at now and returns it with the
// variant it ran; the batching policy observes its SLO violations. It
// returns nil when no batch executes (a failure stranded it).
func (d *Device) Complete(now time.Duration) ([]Query, models.Variant) {
	batch := d.inflight
	if batch == nil {
		return nil, models.Variant{}
	}
	d.busyAccum += d.doneAt - d.busyStart
	d.inflight = nil
	violations := 0
	for _, q := range batch {
		if now > q.Deadline {
			violations++
		}
	}
	d.cfg.Policy.Observe(len(batch), violations)
	return batch, d.running
}

// Fail kills the device at now: the queue strands as a device failure, the
// executing batch (the hardware died under it) as a mid-flight loss, and
// the hosted model is lost.
func (d *Device) Fail(now time.Duration, acts []Action) []Action {
	d.down = true
	acts = each(acts, Strand, telemetry.CauseDeviceFailure, d.queue)
	acts = each(acts, Strand, telemetry.CauseMidflight, d.inflight)
	if d.inflight != nil {
		// The device was working until the moment it died.
		d.busyAccum += now - d.busyStart
	}
	d.queue, d.inflight = nil, nil
	d.hosted = nil
	d.maxBatch, d.memBatch = 0, 0
	d.loadingUntil = 0
	d.cfg.Policy.Reset()
	return acts
}

// Recover brings the device back with an empty memory, loading ref (the
// current plan's hosting for it, usually nil until the next re-allocation).
func (d *Device) Recover(ref *allocator.VariantRef, now, loadDelay time.Duration) {
	d.down = false
	d.SetHosted(ref, now, loadDelay)
}

// Shutdown drops every queued and executing query as draining.
func (d *Device) Shutdown(acts []Action) []Action {
	acts = each(acts, Drop, telemetry.CauseDraining, d.queue)
	acts = each(acts, Drop, telemetry.CauseDraining, d.inflight)
	d.queue, d.inflight = nil, nil
	return acts
}

// Sample snapshots the device for the tsdb sampler; the guard's signals are
// the driver's to add. Queue depth counts the executing batch, and busy time
// its elapsed part.
func (d *Device) Sample(now time.Duration) tsdb.DeviceState {
	busy := d.busyAccum
	if d.inflight != nil {
		busy += min(now, d.doneAt) - d.busyStart
	}
	return tsdb.DeviceState{
		Up:         !d.down,
		QueueDepth: len(d.queue) + len(d.inflight),
		LastBatch:  d.lastBatch,
		Variant:    d.HostedID(),
		BusyTime:   busy,
	}
}

// GuardProfile describes the hosting for the overload guard's admission
// bound and degradation ladder.
func (d *Device) GuardProfile() overload.DeviceProfile {
	if d.down || d.hosted == nil || d.maxBatch < 1 {
		return overload.DeviceProfile{Family: -1}
	}
	f := d.hosted.Family
	return overload.DeviceProfile{
		Family:   f,
		Accuracy: d.hosted.Variant.Accuracy,
		MaxBatch: d.maxBatch,
		Lat1:     d.procTime(1),
		LatMax:   d.procTime(d.maxBatch),
		SLO:      d.cfg.SLOs[f],
	}
}

// Retry is the re-route budget decision for a stranded query: CauseNone,
// counting the retry, when q may go back to the router; otherwise the cause
// to drop it for — the budget of maxRetries is spent or the deadline passed.
func Retry(q *Query, now time.Duration, maxRetries int) telemetry.Cause {
	if q.Retries >= maxRetries {
		return telemetry.CauseRetryBudget
	}
	if q.Deadline <= now {
		return telemetry.CauseExpired
	}
	q.Retries++
	return telemetry.CauseNone
}
