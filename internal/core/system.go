package core

import (
	"fmt"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/controlplane"
	"proteus/internal/flightrec"
	"proteus/internal/metrics"
	"proteus/internal/numeric"
	"proteus/internal/overload"
	"proteus/internal/router"
	"proteus/internal/simulation"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// System is one assembled inference-serving system under simulation.
type System struct {
	cfg     Config
	engine  *simulation.Engine
	rng     *numeric.RNG
	workers []*worker
	slos    []time.Duration

	table      *router.Table
	guard      *overload.Guard
	plan       *allocator.Allocation
	stats      *controlplane.Stats
	controller *controlplane.Controller
	collector  *metrics.Collector

	nextID      uint64
	nextBatchID int
	reallocErr  error
	// planSeq is the audit-log sequence number of the plan currently in
	// force (0 until the initial plan applies). Stamped onto trace events
	// so latency attribution can join queries to control decisions.
	planSeq int32

	// Telemetry: tracer, counter bundles and the tsdb recorder are
	// nil-safe, so an uninstrumented run pays only a nil check per event.
	tracer   *telemetry.Tracer
	tc       telemetry.SystemCounters
	rc       telemetry.RouterCounters
	recorder *tsdb.Recorder
	flight   *flightrec.Recorder
	// pendingBurns defers burn-start incident bundles until after the
	// sampling tick that detected them has refreshed the flight recorder's
	// rings, so a bundle always includes the burn's own second. Burn
	// transitions only fire inside Recorder.Sample, which the event loop
	// runs single-threaded, so no locking is needed.
	pendingBurns []tsdb.BurnEvent

	// Failure state: down[d] marks device d as failed; pendingFaultRetry
	// tracks a fault-triggered re-allocation deferred by the cooldown, with
	// pendingFaultTrigger holding the most recent coalesced trigger.
	down                []bool
	pendingFaultRetry   bool
	pendingFaultTrigger string

	// Hardware scaling in tandem (§7): extra devices provisioned and in
	// flight.
	extraProvisioned int
	extraPending     int
}

// NewSystem builds a system from the config.
func NewSystem(cfg Config) (*System, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		engine: simulation.NewEngine(),
		rng:    numeric.NewRNG(cfg.Seed),
		slos:   cfg.SLOs(),
		tracer: cfg.Tracer,
		tc:     telemetry.NewSystemCounters(cfg.Telemetry),
		rc:     telemetry.NewRouterCounters(cfg.Telemetry),
	}
	// Ring-wrap evictions surface as trace_dropped_total so truncated
	// traces are visible to attribution (both arguments are nil-safe).
	cfg.Tracer.SetDropCounter(cfg.Telemetry.Counter("trace_dropped_total"))
	s.collector = metrics.NewCollector(cfg.MetricsInterval, cfg.FamilyNames())
	s.stats = controlplane.NewStats(len(cfg.Families), int(cfg.DemandWindow/time.Second), cfg.BurstFactor)
	s.controller = controlplane.NewController(
		cfg.Allocator, cfg.Cluster, cfg.Families, s.slos, cfg.ControlPeriod, cfg.BurstCooldown)
	s.controller.Instrument(cfg.Telemetry)
	s.controller.SetHistoryLimit(cfg.PlanHistory)
	s.recorder = cfg.TSDB
	s.recorder.Init(len(cfg.Families), s.onBurn)
	s.flight = cfg.Flight
	s.flight.Init(flightrec.Sources{
		Tracer:   cfg.Tracer,
		Registry: cfg.Telemetry,
		TSDB:     cfg.TSDB,
		Plans:    s.controller.History,
	})
	if s.flight != nil {
		// Any plan the primary allocator did not produce is an anomaly worth
		// a bundle: the fallback chain stepped in or the solve failed.
		s.controller.SetRecordHook(func(rec controlplane.PlanRecord) {
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
	if cfg.Overload != nil {
		s.guard = overload.New(*cfg.Overload, len(cfg.Families), cfg.Cluster.Size())
		s.guard.Instrument(cfg.Telemetry)
	}
	s.tc.DevicesUp.Set(int64(cfg.Cluster.Size()))
	for _, dev := range cfg.Cluster.Devices() {
		s.workers = append(s.workers, newWorker(s, dev))
	}
	s.down = make([]bool, cfg.Cluster.Size())
	s.plan = allocator.NewAllocation(&allocator.Input{
		Cluster:  cfg.Cluster,
		Families: cfg.Families,
		SLOs:     s.slos,
		Demand:   make([]float64, len(cfg.Families)),
	})
	s.table = router.BuildTable(s.plan, len(cfg.Families))
	return s, nil
}

// Result is the outcome of a simulation run.
type Result struct {
	// Collector holds the full per-bin time series.
	Collector *metrics.Collector
	// Summary aggregates all families (§6.1.4 metrics).
	Summary metrics.Summary
	// PerFamily aggregates each family separately (Fig. 9).
	PerFamily []metrics.Summary
	// Plans is the controller's re-allocation history.
	Plans []controlplane.PlanRecord
	// ModelLoads counts model-variant load events across workers.
	ModelLoads int
	// ExtraDevices counts servers provisioned by the §7 hardware-scaling
	// extension during the run (0 unless Config.Elastic is set).
	ExtraDevices int
	// Wall is the real time the simulation took.
	Wall time.Duration
}

// Run replays the trace through the system and returns the collected
// metrics. The first allocation is computed from the trace's initial demand
// (the paper's systems likewise pre-load an initial plan).
func (s *System) Run(tr *trace.Trace) (*Result, error) {
	if len(tr.Families) != len(s.cfg.Families) {
		return nil, fmt.Errorf("core: trace has %d families, system has %d", len(tr.Families), len(s.cfg.Families))
	}
	// Initial plan from the first control period's average demand.
	warm := int(s.cfg.ControlPeriod / time.Second)
	if warm > tr.Seconds() {
		warm = tr.Seconds()
	}
	initial := make([]float64, len(s.cfg.Families))
	if warm > 0 {
		for t := 0; t < warm; t++ {
			for q := range initial {
				initial[q] += tr.Demand[t][q]
			}
		}
		for q := range initial {
			initial[q] /= float64(warm)
		}
	}
	arrivals := tr.Arrivals(s.rng.Split())
	return s.RunArrivals(arrivals, time.Duration(tr.Seconds())*time.Second, initial)
}

// RunArrivals replays an explicit arrival sequence (already sorted by time)
// for the given duration, pre-loading an initial plan for initialDemand.
// It is the entry point for the §6.4 batching experiments, whose arrival
// processes are not Poisson.
func (s *System) RunArrivals(arrivals []trace.Arrival, duration time.Duration, initialDemand []float64) (*Result, error) {
	start := time.Now() //lint:allow determinism wall-clock Result.Wall measurement; the simulated clock is engine.Now
	if len(initialDemand) != len(s.cfg.Families) {
		return nil, fmt.Errorf("core: initial demand has %d entries, want %d", len(initialDemand), len(s.cfg.Families))
	}
	initial := make([]float64, len(initialDemand))
	for q := range initial {
		initial[q] = initialDemand[q] * s.cfg.Headroom
	}
	plan, err := s.controller.Reallocate(0, initial, "initial")
	if err != nil {
		return nil, fmt.Errorf("core: initial allocation: %w", err)
	}
	s.planSeq = int32(s.controller.LastPlanSeq())
	s.applyPlan(plan, true)

	for _, a := range arrivals {
		a := a
		s.engine.Schedule(a.Time, func() { s.onArrival(a) })
	}

	// Periodic controller invocations for dynamic allocators.
	if s.controller.Dynamic() {
		for at := s.cfg.ControlPeriod; at < duration; at += s.cfg.ControlPeriod {
			at := at
			s.engine.Schedule(at, func() { s.reallocate("periodic") })
		}
	}

	// Device time-series sampling on the virtual clock (the live server
	// runs the same recorder off a wall-clock ticker).
	if si := s.recorder.SampleInterval(); si > 0 {
		for at := si; at <= duration; at += si {
			at := at
			s.engine.Schedule(at, func() { s.sampleTSDB() })
		}
	}

	// Flight-recorder ring refreshes normally ride the sampling events
	// (sampleTSDB ticks the recorder after each sample); without a tsdb
	// recorder they need their own 1s cadence for counter snapshots.
	if s.flight != nil && s.recorder.SampleInterval() <= 0 {
		for at := time.Second; at <= duration; at += time.Second {
			at := at
			s.engine.Schedule(at, func() { s.flight.Tick(at) })
		}
	}

	// Overload-guard ticks on the virtual clock: escalation, deferred
	// degrades and restores advance at a fixed 1s cadence (the live server
	// runs the same guard off a wall-clock ticker).
	if s.guard != nil {
		for at := time.Second; at <= duration; at += time.Second {
			at := at
			s.engine.Schedule(at, func() { s.applyOverloadChanges(s.guard.Tick(at)) })
		}
	}

	// Fault injection: the schedule's events become simulation events.
	if s.cfg.Faults != nil {
		for _, ev := range s.cfg.Faults.Events {
			ev := ev
			s.engine.Schedule(ev.FailAt, func() { s.failDevice(ev.Device) })
			if ev.RecoverAt > 0 {
				s.engine.Schedule(ev.RecoverAt, func() { s.recoverDevice(ev.Device) })
			}
		}
	}

	s.engine.Run()
	if s.reallocErr != nil {
		return nil, s.reallocErr
	}

	res := &Result{
		Collector: s.collector,
		Summary:   s.collector.Summarize(-1),
		Plans:     s.controller.History(),
		Wall:      time.Since(start), //lint:allow determinism reporting-only wall-clock measurement
	}
	for q := range s.cfg.Families {
		res.PerFamily = append(res.PerFamily, s.collector.Summarize(q))
	}
	for _, w := range s.workers {
		res.ModelLoads += w.dev.Loads()
	}
	res.ExtraDevices = s.extraProvisioned
	return res, nil
}

// Collector exposes the metrics collector (for live inspection in tests).
func (s *System) Collector() *metrics.Collector { return s.collector }

// sampleTSDB snapshots every device into the tsdb recorder.
func (s *System) sampleTSDB() {
	now := s.engine.Now()
	states := make([]tsdb.DeviceState, len(s.workers))
	for d, w := range s.workers {
		states[d] = w.dev.Sample(now)
		states[d].SatMilli, states[d].Pressured = s.guard.DeviceSignal(d)
	}
	s.recorder.Sample(now, states)
	// Refresh the flight recorder's rings with this tick's state, then fire
	// any burn-start bundles the sample just detected so they capture it.
	if s.flight != nil {
		s.flight.Tick(now)
		for _, ev := range s.pendingBurns {
			s.flight.Trigger(ev.At, "slo_burn",
				fmt.Sprintf("family=%d short=%.2f long=%.2f", ev.Family, ev.ShortBurn, ev.LongBurn),
				ev.Family, -1)
		}
		s.pendingBurns = s.pendingBurns[:0]
	}
}

// onBurn receives SLO burn-state transitions from the tsdb recorder: they
// enter the lifecycle trace and the controller's audit log, and — when
// enabled — a burn start triggers an early re-allocation. Runs under the
// recorder's lock, so it must not call back into the recorder.
func (s *System) onBurn(ev tsdb.BurnEvent) {
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
	// Emergency accuracy degradation reacts to the burn edge immediately —
	// never waiting for the next control period. The guard's lock is a leaf,
	// so calling it under the recorder's lock is safe.
	s.applyOverloadChanges(s.guard.OnBurn(ev.At, ev.Family, ev.Start))
	// A burn's leading edge snapshots an incident bundle — deferred to just
	// after the sampling tick completes (sampleTSDB flushes pendingBurns),
	// both because Trigger must not run under the recorder's lock with a
	// stale ring and so the bundle includes the burn's own second.
	if ev.Start && s.flight != nil {
		s.pendingBurns = append(s.pendingBurns, ev)
	}
	if ev.Start && s.cfg.SLOBurnRealloc && s.controller.Dynamic() && s.controller.AllowBurst(ev.At) {
		s.reallocate("slo_burn")
	}
}

func (s *System) onArrival(a trace.Arrival) {
	now := s.engine.Now()
	s.stats.Observe(now, a.Family)
	s.collector.Arrival(now, a.Family)
	s.recorder.Arrival(now, a.Family)
	q := query{
		ID:       s.nextID,
		Family:   a.Family,
		Arrival:  now,
		Deadline: now + s.slos[a.Family],
	}
	s.nextID++
	s.tc.Arrivals.Inc()
	s.tracer.Record(now, telemetry.EvArrival, q.ID, q.Family, -1, -1)
	s.route(now, q)

	// Burst detection on the data path's monitoring daemon (§3).
	if s.controller.Dynamic() && s.stats.AnyBurst(now) && s.controller.AllowBurst(now) {
		s.reallocate("burst")
	}
}

func (s *System) route(now time.Duration, q query) {
	var d int
	if s.guard != nil {
		d = s.table.PickExcluding(q.Family, s.rng, func(dev int) bool {
			return s.guard.Banned(q.Family, dev)
		})
		if d >= 0 && !s.guard.Admit(now, d, q.Deadline) {
			// Shed-on-arrival: the query provably cannot meet its deadline
			// behind d's backlog, so executing it would only waste capacity.
			s.dropQuery(now, q, telemetry.CauseShedAdmission)
			return
		}
	} else {
		d = s.table.Pick(q.Family, s.rng)
	}
	if d < 0 {
		s.dropQuery(now, q, telemetry.CauseNoRoute)
		return
	}
	s.tracer.Record(now, telemetry.EvRoute, q.ID, q.Family, d, -1)
	s.workers[d].enqueue(q)
}

// traceCtx assembles the causal context stamped onto trace events: the plan
// in force, the family's active degradation episode, and the event's cause.
// Call only when the tracer is non-nil — the guard lookup is not free.
func (s *System) traceCtx(family int, cause telemetry.Cause) telemetry.Ctx {
	ctx := telemetry.Ctx{Plan: s.planSeq, Cause: cause}
	if s.guard != nil {
		ctx.Episode = int32(s.guard.EpisodeID(family))
	}
	return ctx
}

// applyOverloadChanges publishes the guard's degradation-ladder transitions:
// tracer events (degrade_start carries the new level in the batch field) and
// decision-audit records attached to the next PlanRecord.
func (s *System) applyOverloadChanges(changes []overload.Change) {
	for _, ch := range changes {
		kind := telemetry.EvDegradeStart
		if ch.Kind == overload.Restore {
			kind = telemetry.EvDegradeEnd
		}
		s.tracer.RecordCtx(ch.At, kind, 0, ch.Family, -1, ch.Level,
			telemetry.Ctx{Plan: s.planSeq, Episode: int32(ch.Episode)})
		s.controller.NoteOverload(controlplane.OverloadRecord{
			At:      ch.At,
			Family:  ch.Family,
			Kind:    string(ch.Kind),
			Level:   ch.Level,
			Episode: ch.Episode,
			Reason:  ch.Reason,
		})
		// A degradation opening is the overload incident's leading edge;
		// escalations and restores are just episode progress.
		if ch.Kind == overload.Degrade {
			s.flight.Trigger(ch.At, "overload",
				fmt.Sprintf("family=%d level=%d reason=%s", ch.Family, ch.Level, ch.Reason),
				ch.Family, -1)
		}
	}
}

func (s *System) reallocate(trigger string) {
	now := s.engine.Now()
	demand := s.stats.Estimates(now)
	for q := range demand {
		if trigger == "burst" {
			// A burst re-allocation reacts to the instantaneous rate; the
			// periodic path sticks to the windowed estimate so Poisson
			// noise does not churn the plan.
			if inst := s.stats.Monitors[q].InstantRate(now); inst > demand[q] {
				demand[q] = inst
			}
		}
		demand[q] *= s.cfg.Headroom
	}
	// §4: re-allocate in response to macro-scale demand changes. When the
	// demand estimate is close to the current plan's target, keep the plan
	// — re-solving would only churn model loads.
	if trigger == "periodic" && !s.controller.DemandChanged(demand, 0.1) {
		return
	}
	plan, err := s.controller.Reallocate(now, demand, trigger)
	if err != nil {
		if s.reallocErr == nil {
			s.reallocErr = fmt.Errorf("core: re-allocation at %v: %w", now, err)
		}
		return
	}
	// The new plan's audit sequence number becomes current only when the
	// plan itself does, so queries enqueued during the apply delay still
	// blame the plan they actually ran under.
	seq := int32(s.controller.LastPlanSeq())
	// The plan takes effect after the control-path delay (§4: the solver is
	// off the critical path, so serving continues meanwhile).
	s.engine.After(s.cfg.PlanApplyDelay, func() {
		s.planSeq = seq
		s.applyPlan(plan, false)
		if trigger == "failure" {
			// The surviving-device plan is live: failures are handled.
			s.collector.FailureHandled(s.engine.Now())
		}
	})

	// Hardware scaling in tandem (§7): a plan that sheds demand means even
	// the lowest-accuracy hosting cannot cover the load — start a server;
	// accuracy scaling carries the burst until it arrives.
	if e := s.cfg.Elastic; e != nil && plan.DemandScale < 0.999 &&
		s.extraProvisioned+s.extraPending < e.MaxExtra {
		s.extraPending++
		s.engine.After(e.ProvisionDelay, s.provisionDevice)
	}
}

// provisionDevice adds one elastic device to the fleet and re-allocates so
// the new capacity is put to use immediately.
func (s *System) provisionDevice() {
	e := s.cfg.Elastic
	s.extraPending--
	s.extraProvisioned++
	grown := s.controller.Cluster().WithExtra(e.Type)
	s.controller.SetCluster(grown)
	dev := grown.Device(grown.Size() - 1)
	s.workers = append(s.workers, newWorker(s, dev))
	s.down = append(s.down, false)
	s.reallocate("provision")
}

// applyPlan installs a new allocation: per-worker hosted variants (with
// load delays and queue re-routing), planned capacities, and the routing
// table — masked to exclude devices that are still loading their new model,
// so sub-second-SLO queries never sit behind a multi-second model load.
func (s *System) applyPlan(plan *allocator.Allocation, initial bool) {
	now := s.engine.Now()
	s.plan = plan
	s.tc.DemandScaleMilli.Set(int64(plan.DemandScale * 1000))
	if err := s.stats.SetPlanned(plan.ServedQPS); err != nil {
		// Plans come from our own controller so the shapes always agree;
		// surface any disagreement as a run error rather than panicking.
		s.reallocErr = err
	}
	var rerouted []query
	for d, w := range s.workers {
		if d < len(s.down) && s.down[d] {
			// Failed devices keep hosting nothing; recovery reloads from the
			// then-current plan.
			continue
		}
		var hostedRef *allocator.VariantRef
		newID := ""
		if d < len(plan.Hosted) {
			hostedRef = plan.Hosted[d]
			newID = plan.HostedID(d)
		}
		if newID == w.dev.HostedID() {
			continue
		}
		delay := s.cfg.ModelLoadDelay
		if initial {
			// Initial plan: models are loaded before the experiment starts.
			delay = 0
		}
		rerouted = append(rerouted, w.setHosted(hostedRef, now, delay)...)
		s.scheduleLoaded(w, now)
	}
	s.rebuildTable()
	for _, q := range rerouted {
		s.route(now, q)
	}
	for _, w := range s.workers {
		w.evaluate()
	}
}

// scheduleLoaded re-admits w into the routing table once its model load,
// if one is under way, completes.
func (s *System) scheduleLoaded(w *worker, now time.Duration) {
	if !w.dev.Loading(now) {
		return
	}
	s.engine.Schedule(w.dev.LoadedAt(), func() {
		s.rebuildTable()
		w.evaluate()
	})
}

// rebuildTable rebuilds the routing table from the current plan, excluding
// devices whose model is still loading. Weights renormalize per family so
// ready devices absorb the load meanwhile.
func (s *System) rebuildTable() {
	now := s.engine.Now()
	masked := allocator.Allocation{
		Hosted:  s.plan.Hosted,
		Routing: make([][]float64, len(s.plan.Routing)),
	}
	admit := make([]float64, len(s.plan.Routing))
	for q, row := range s.plan.Routing {
		masked.Routing[q] = make([]float64, len(row))
		for d, y := range row {
			if y <= 0 {
				continue
			}
			admit[q] += y
			if w := s.workers[d]; w.dev.Down() || w.dev.Loading(now) {
				continue
			}
			masked.Routing[q][d] = y
		}
	}
	s.table = router.BuildTable(&masked, len(s.cfg.Families))
	s.table.SetCounters(s.rc)
	if s.cfg.DisableAdmission {
		for q := range admit {
			if admit[q] > 0 {
				admit[q] = 1
			}
		}
	}
	// Admission follows the full plan, not the load-masked subset: during a
	// model load the remaining devices absorb the full admitted load.
	s.table.SetAdmission(admit)
	s.syncGuardPlan(now)
}

// syncGuardPlan refreshes the overload guard's per-device profiles from the
// workers' current hosting (rebuildTable's call sites cover every hosting
// change: plan application, load completion, failure, recovery).
func (s *System) syncGuardPlan(now time.Duration) {
	if s.guard == nil {
		return
	}
	profs := make([]overload.DeviceProfile, len(s.workers))
	for d, w := range s.workers {
		profs[d] = w.dev.GuardProfile()
	}
	s.guard.SetPlan(now, profs)
}

func (s *System) dropQuery(now time.Duration, q query, cause telemetry.Cause) {
	s.collector.Dropped(now, q.Family)
	s.recorder.Violation(now, q.Family)
	s.tc.Dropped.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvDropped, q.ID, q.Family, -1, -1, s.traceCtx(q.Family, cause))
	}
}

func (s *System) serveQuery(now time.Duration, q query, accuracy float64, device, batch int) {
	s.collector.Served(now, q.Family, accuracy, now-q.Arrival)
	s.tc.Served.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvDone, q.ID, q.Family, device, batch, s.traceCtx(q.Family, telemetry.CauseNone))
	}
	s.recordPhases(now, q, device)
}

func (s *System) lateQuery(now time.Duration, q query, device, batch int) {
	s.collector.Late(now, q.Family, now-q.Arrival)
	s.recorder.Violation(now, q.Family)
	s.tc.Late.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvLate, q.ID, q.Family, device, batch, s.traceCtx(q.Family, telemetry.CauseNone))
	}
	s.recordPhases(now, q, device)
}

// recordPhases differences the query's lifecycle timestamps into per-phase
// durations for the tsdb decomposition histograms. Response stays zero on
// the virtual clock: completion and response delivery coincide.
func (s *System) recordPhases(done time.Duration, q query, device int) {
	s.recorder.RecordPhases(q.Family, device, tsdb.PhaseDurations{
		Admission: q.EnqueueAt - q.Arrival,
		Queue:     q.FormAt - q.EnqueueAt,
		BatchForm: q.ExecAt - q.FormAt,
		Exec:      done - q.ExecAt,
	})
}
