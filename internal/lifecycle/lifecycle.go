// Package lifecycle is the one reporting sink of a serving run. The
// simulator (internal/core) and the live cluster (internal/serving) call it
// once per query transition and once per device or control event, and it
// fans each report out to every observability output: the telemetry
// counters, the lifecycle tracer with its causal context, the tsdb
// recorder's SLO monitor and phase histograms, the metrics collector, and
// the flight recorder's incident bundles. Both engines therefore count,
// trace and bin a query the same way by construction.
//
// The sink reads no clock: every method takes the caller's time, the
// virtual clock in simulation and time since start in live mode. It is safe
// for concurrent use. Its one mutex is a leaf guarding the collector, the
// healthy-device count and the deferred burn bundles: no other lock is
// taken while it is held.
package lifecycle

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/controlplane"
	"proteus/internal/device"
	"proteus/internal/flightrec"
	"proteus/internal/metrics"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Config names the outputs of one run. Registry, Tracer, TSDB, Flight and
// Guard may be nil (that output is off); Controller is required.
type Config struct {
	// Families are the family names in index order; MetricsInterval is the
	// collector's bin width.
	Families        []string
	MetricsInterval time.Duration
	// Devices is the fleet size at start, all up.
	Devices int
	// MaxRetries is the re-route budget Requeue hands to device.Retry.
	MaxRetries int

	Registry   *telemetry.Registry
	Tracer     *telemetry.Tracer
	TSDB       *tsdb.Recorder
	Flight     *flightrec.Recorder
	Controller *controlplane.Controller
	Guard      *overload.Guard
}

// Sink is one run's lifecycle sink.
type Sink struct {
	tc         telemetry.SystemCounters
	tracer     *telemetry.Tracer
	recorder   *tsdb.Recorder
	flight     *flightrec.Recorder
	controller *controlplane.Controller
	guard      *overload.Guard
	maxRetries int

	nextQuery atomic.Uint64
	nextBatch atomic.Int64
	// planSeq is the audit-log sequence number of the plan in force, stamped
	// onto trace events so attribution can join queries to control
	// decisions.
	planSeq atomic.Int32

	mu        sync.Mutex
	collector *metrics.Collector
	up        int64
	// pendingBurns holds burn starts whose incident bundles wait for the
	// next Tick, so each bundle includes the burn's own second.
	pendingBurns []tsdb.BurnEvent
}

// New assembles the sink and wires the outputs that report on their own:
// trace ring evictions count as trace_dropped_total, the flight recorder
// snapshots the tracer, registry, tsdb and plan history, and any plan the
// primary allocator did not produce triggers an alloc_fallback bundle.
func New(cfg Config) *Sink {
	s := &Sink{
		tc:         telemetry.NewSystemCounters(cfg.Registry),
		tracer:     cfg.Tracer,
		recorder:   cfg.TSDB,
		flight:     cfg.Flight,
		controller: cfg.Controller,
		guard:      cfg.Guard,
		maxRetries: cfg.MaxRetries,
		collector:  metrics.NewCollector(cfg.MetricsInterval, cfg.Families),
		up:         int64(cfg.Devices),
	}
	cfg.Tracer.SetDropCounter(cfg.Registry.Counter("trace_dropped_total"))
	s.flight.Init(flightrec.Sources{
		Tracer:   cfg.Tracer,
		Registry: cfg.Registry,
		TSDB:     cfg.TSDB,
		Plans:    cfg.Controller.History,
	})
	if s.flight != nil {
		// The hook runs after the controller released its history lock.
		cfg.Controller.SetRecordHook(func(rec controlplane.PlanRecord) {
			if rec.Stage == "primary" {
				return
			}
			detail := fmt.Sprintf("stage=%s solver=%s", rec.Stage, rec.Solver)
			if rec.Err != "" {
				detail += " err=" + rec.Err
			}
			s.flight.Trigger(rec.At, "alloc_fallback", detail, -1, -1)
		})
	}
	s.tc.DevicesUp.Set(s.up)
	return s
}

// ctx is the causal context stamped onto trace events: the plan in force,
// the family's active degradation episode, and the event's cause. Call it
// only with a tracer: the episode lookup takes the guard's lock.
func (s *Sink) ctx(family int, cause telemetry.Cause) telemetry.Ctx {
	return telemetry.Ctx{
		Plan:    s.planSeq.Load(),
		Episode: int32(s.guard.EpisodeID(family)),
		Cause:   cause,
	}
}

// Arrive reports a query of family f entering the system at now and returns
// its ID; IDs count up from 0 in arrival order.
func (s *Sink) Arrive(now time.Duration, f int) uint64 {
	s.mu.Lock()
	s.collector.Arrival(now, f)
	s.mu.Unlock()
	s.recorder.Arrival(now, f)
	id := s.nextQuery.Add(1) - 1
	s.tc.Arrivals.Inc()
	s.tracer.Record(now, telemetry.EvArrival, id, f, -1, -1)
	return id
}

// Route reports the router sending q to device d.
func (s *Sink) Route(now time.Duration, q *device.Query, d int) {
	s.tracer.Record(now, telemetry.EvRoute, q.ID, q.Family, d, -1)
}

// Enqueue reports q joining device d's queue. The event carries the plan
// and overload episode in force, anchoring attribution's causal joins.
func (s *Sink) Enqueue(now time.Duration, q *device.Query, d int) {
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvEnqueue, q.ID, q.Family, d, -1, s.ctx(q.Family, telemetry.CauseNone))
	}
}

// Wait counts a batching decision that holds the queue for more arrivals.
func (s *Sink) Wait() { s.tc.BatchWaits.Inc() }

// Idle counts a batching decision that found nothing to run.
func (s *Sink) Idle() { s.tc.BatchIdles.Inc() }

// Start reports device d starting to execute batch and returns the batch's
// ID; IDs count up from 0 across the fleet.
func (s *Sink) Start(now time.Duration, batch []device.Query, d int) int {
	id := int(s.nextBatch.Add(1) - 1)
	s.tc.BatchExecutes.Inc()
	s.tc.Batches.Inc()
	s.tc.BatchQueries.Add(int64(len(batch)))
	if s.tracer != nil {
		for i := range batch {
			q := &batch[i]
			s.tracer.Record(now, telemetry.EvBatchFormed, q.ID, q.Family, d, id)
			s.tracer.Record(now, telemetry.EvExecStart, q.ID, q.Family, d, id)
		}
	}
	return id
}

// Finish reports q completing at now in batch on device d, on a variant of
// the given accuracy. It returns true when q was served — completed by its
// deadline, inclusive — and false when it was late (an SLO violation).
func (s *Sink) Finish(now time.Duration, q *device.Query, accuracy float64, d, batch int) bool {
	latency := now - q.Arrival
	served := now <= q.Deadline
	s.mu.Lock()
	if served {
		s.collector.Served(now, q.Family, accuracy, latency)
	} else {
		s.collector.Late(now, q.Family, latency)
	}
	s.mu.Unlock()
	kind := telemetry.EvDone
	if served {
		s.tc.Served.Inc()
	} else {
		s.recorder.Violation(now, q.Family)
		s.tc.Late.Inc()
		kind = telemetry.EvLate
	}
	if s.tracer != nil {
		s.tracer.RecordCtx(now, kind, q.ID, q.Family, d, batch, s.ctx(q.Family, telemetry.CauseNone))
	}
	// Difference the lifecycle timestamps into the phase decomposition.
	// Response stays zero: completion and response delivery coincide.
	s.recorder.RecordPhases(q.Family, d, tsdb.PhaseDurations{
		Admission: q.EnqueueAt - q.Arrival,
		Queue:     q.FormAt - q.EnqueueAt,
		BatchForm: q.ExecAt - q.FormAt,
		Exec:      now - q.ExecAt,
	})
	return served
}

// Drop reports q leaving the system unserved at now, for cause.
func (s *Sink) Drop(now time.Duration, q *device.Query, cause telemetry.Cause) {
	s.mu.Lock()
	s.collector.Dropped(now, q.Family)
	s.mu.Unlock()
	s.recorder.Violation(now, q.Family)
	s.tc.Dropped.Inc()
	if cause == telemetry.CausePolicyDrop {
		s.tc.BatchDrops.Inc()
	}
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvDropped, q.ID, q.Family, -1, -1, s.ctx(q.Family, cause))
	}
}

// Requeue reports q stranded at now, for cause (a device failure, a stale
// route, a mid-flight loss), and decides its retry with device.Retry. It
// returns true when q may go back to the router, its retry counted; false
// when it was dropped instead, its drop already reported.
func (s *Sink) Requeue(now time.Duration, q *device.Query, cause telemetry.Cause) bool {
	s.mu.Lock()
	s.collector.Requeued(now, q.Family)
	s.mu.Unlock()
	s.tc.Requeued.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvRequeued, q.ID, q.Family, -1, -1, s.ctx(q.Family, cause))
	}
	if drop := device.Retry(q, now, s.maxRetries); drop != telemetry.CauseNone {
		s.Drop(now, q, drop)
		return false
	}
	s.mu.Lock()
	s.collector.Retried(now, q.Family)
	s.mu.Unlock()
	s.tc.Retried.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvRetried, q.ID, q.Family, -1, -1, s.ctx(q.Family, cause))
	}
	return true
}

// Fail reports device d, called name, failing at now: the failure waits in
// the collector for its re-allocation (time to recover), devices_up drops,
// and the flight recorder snapshots a device_failure bundle.
func (s *Sink) Fail(now time.Duration, d int, name string) {
	s.mu.Lock()
	s.collector.DeviceFailed(now)
	s.up--
	s.tc.DevicesUp.Set(s.up)
	s.mu.Unlock()
	s.flight.Trigger(now, "device_failure", name, -1, d)
}

// Recover reports a failed device coming back up at now.
func (s *Sink) Recover(now time.Duration) {
	s.mu.Lock()
	s.collector.DeviceRecovered(now)
	s.up++
	s.tc.DevicesUp.Set(s.up)
	s.mu.Unlock()
}

// Provision reports a device joining the fleet up.
func (s *Sink) Provision() {
	s.mu.Lock()
	s.up++
	s.tc.DevicesUp.Set(s.up)
	s.mu.Unlock()
}

// ModelLoad reports a device starting to load a model variant.
func (s *Sink) ModelLoad() { s.tc.ModelLoads.Inc() }

// Plan reports plan, audit sequence number seq, taking effect at now. Trace
// events from here on carry seq; a plan made for a failure closes out the
// pending failures' time to recover.
func (s *Sink) Plan(now time.Duration, seq int32, plan *allocator.Allocation, trigger string) {
	s.planSeq.Store(seq)
	s.tc.DemandScaleMilli.Set(int64(plan.DemandScale * 1000))
	if trigger == "failure" {
		s.mu.Lock()
		s.collector.FailureHandled(now)
		s.mu.Unlock()
	}
}

// Overload publishes the overload guard's degradation-ladder transitions:
// trace events (degrade_start carries the new level in the batch field),
// audit records attached to the next PlanRecord, and an overload bundle
// when an episode opens (escalations and restores are episode progress).
func (s *Sink) Overload(changes []overload.Change) {
	for _, ch := range changes {
		kind := telemetry.EvDegradeStart
		if ch.Kind == overload.Restore {
			kind = telemetry.EvDegradeEnd
		}
		s.tracer.RecordCtx(ch.At, kind, 0, ch.Family, -1, ch.Level,
			telemetry.Ctx{Plan: s.planSeq.Load(), Episode: int32(ch.Episode)})
		s.controller.NoteOverload(controlplane.OverloadRecord{
			At:      ch.At,
			Family:  ch.Family,
			Kind:    string(ch.Kind),
			Level:   ch.Level,
			Episode: ch.Episode,
			Reason:  ch.Reason,
		})
		if ch.Kind == overload.Degrade {
			s.flight.Trigger(ch.At, "overload",
				fmt.Sprintf("family=%d level=%d reason=%s", ch.Family, ch.Level, ch.Reason),
				ch.Family, -1)
		}
	}
}

// Burn publishes an SLO burn-state transition of the tsdb recorder: a trace
// event, an audit record, the overload guard's emergency degradation (which
// reacts to the edge at once, never waiting for a control period), and —
// for a burn start — an incident bundle deferred to the next Tick. It runs
// under the recorder's lock from the burn callback, so it never calls back
// into the recorder.
func (s *Sink) Burn(ev tsdb.BurnEvent) {
	kind := telemetry.EvSLOBurnStart
	if !ev.Start {
		kind = telemetry.EvSLOBurnEnd
	}
	s.tracer.Record(ev.At, kind, 0, ev.Family, -1, -1)
	s.controller.NoteBurn(controlplane.SLOBurnRecord{
		At:        ev.At,
		Family:    ev.Family,
		Start:     ev.Start,
		ShortBurn: ev.ShortBurn,
		LongBurn:  ev.LongBurn,
	})
	s.Overload(s.guard.OnBurn(ev.At, ev.Family, ev.Start))
	if ev.Start && s.flight != nil {
		s.mu.Lock()
		s.pendingBurns = append(s.pendingBurns, ev)
		s.mu.Unlock()
	}
}

// Tick refreshes the flight recorder's rings at now, then fires the burn
// bundles deferred since the last Tick. Call it right after each tsdb
// sample, so the rings hold the sampled second.
func (s *Sink) Tick(now time.Duration) {
	if s.flight == nil {
		return
	}
	s.flight.Tick(now)
	s.mu.Lock()
	burns := s.pendingBurns
	s.pendingBurns = nil
	s.mu.Unlock()
	for _, ev := range burns {
		s.flight.Trigger(ev.At, "slo_burn",
			fmt.Sprintf("family=%d short=%.2f long=%.2f", ev.Family, ev.ShortBurn, ev.LongBurn),
			ev.Family, -1)
	}
}

// Collector returns the run's metrics collector. The sink writes it under
// its own lock, so read it directly only once the run is over; Summary and
// WritePrometheusLatency are safe at any time.
func (s *Sink) Collector() *metrics.Collector { return s.collector }

// Summary summarizes the run so far, over all families.
func (s *Sink) Summary() metrics.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.collector.Summarize(-1)
}

// WritePrometheusLatency writes the collector's latency histograms in the
// Prometheus text format.
func (s *Sink) WritePrometheusLatency(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.collector.WritePrometheusLatency(w)
}
