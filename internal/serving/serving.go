// Package serving is the live cluster mode of Proteus: the same control
// plane as the simulator (internal/core) and the same per-device state
// machine (internal/device), but running on wall-clock time with real
// concurrency — an HTTP front end per §3's load balancers, one goroutine
// and one mutex per device whose "hardware executor" waits out the
// profiled batch latency (the model-execution substitution documented in
// DESIGN.md), and a background controller goroutine re-allocating
// periodically. The paper's §6.2 reports its simulator matching this kind
// of deployment within ~1%; BenchmarkSimVsLive repeats that check here, and
// TestSimAndLiveAgree pins per-query agreement on a fake clock.
package serving

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/attrib"
	"proteus/internal/batching"
	"proteus/internal/buildinfo"
	"proteus/internal/cluster"
	"proteus/internal/controlplane"
	"proteus/internal/flightrec"
	"proteus/internal/lifecycle"
	"proteus/internal/metrics"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/overload"
	"proteus/internal/profiles"
	"proteus/internal/router"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Config describes a live serving cluster.
type Config struct {
	Cluster       *cluster.Cluster
	Families      []models.Family
	SLOMultiplier float64
	Allocator     allocator.Allocator
	Batching      batching.Factory
	ControlPeriod time.Duration
	Headroom      float64
	// ModelLoadDelay is how long a worker is unavailable when switching
	// variants. Default 500ms (kept short for live experiments).
	ModelLoadDelay time.Duration
	// ExecNoiseFrac adds multiplicative Gaussian noise to executed batch
	// latencies, mimicking real hardware variance. Default 0.02.
	ExecNoiseFrac float64
	// MetricsInterval is the collector bin width. Default 1s.
	MetricsInterval time.Duration
	// InitialDemand pre-provisions the cluster for the expected per-family
	// QPS before any statistics exist (all zeros by default: the system
	// starts minimal and scales on the first control period).
	InitialDemand []float64
	// Faults injects device failures and recoveries on wall-clock timers —
	// the same schedule type the simulator replays as events, so failure
	// experiments run identically in both modes.
	Faults *cluster.FailureSchedule
	// Telemetry is the counters/gauges registry backing the /metrics
	// endpoint. Defaults to a fresh registry, so a live server always
	// exports metrics.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records per-query lifecycle events with
	// wall-clock timestamps (durations since server start).
	Tracer *telemetry.Tracer
	// TSDB, when non-nil, records per-device time-series samples off a
	// wall-clock ticker and runs the sliding-window SLO burn monitor —
	// the same recorder the simulator drives off its virtual clock.
	TSDB *tsdb.Recorder
	// Flight, when non-nil, is the black-box flight recorder: bounded rings
	// of recent state refreshed on the sampling tick, snapshotted into
	// incident bundles on SLO burns, overload degradations, allocator
	// fallbacks, device failures and POST /debug/incident. Build it with
	// Live set so bundles include heap/GC/goroutine snapshots.
	Flight *flightrec.Recorder
	// PlanHistory bounds the controller's in-memory decision audit ring
	// (records beyond the bound are dropped oldest-first). Default 256.
	PlanHistory int
	// SLOBurnRealloc lets an SLO burn start trigger an early re-allocation
	// (subject to the controller cooldown). Off by default.
	SLOBurnRealloc bool
	// Overload, when non-nil and enabled, activates the fast-path overload
	// guard: deadline admission control, high/low-water mailbox
	// backpressure, and burn-triggered emergency accuracy degradation.
	// Requires TSDB for the degradation path (the burn monitor triggers it).
	Overload *overload.Config
	// MaxRetries is the per-query re-route budget after a device failure
	// strands it (0 drops stranded queries immediately, negative values are
	// treated as 0). Default 1, preserving the single re-dispatch.
	MaxRetries int
	Seed       uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Cluster == nil || c.Cluster.Size() == 0 {
		return c, fmt.Errorf("serving: config needs a cluster")
	}
	if len(c.Families) == 0 {
		return c, fmt.Errorf("serving: config needs families")
	}
	if c.Allocator == nil {
		return c, fmt.Errorf("serving: config needs an allocator")
	}
	if c.SLOMultiplier <= 0 {
		c.SLOMultiplier = 2
	}
	if c.Batching == nil {
		c.Batching = func() batching.Policy { return batching.NewAccScale() }
	}
	if c.ControlPeriod <= 0 {
		c.ControlPeriod = 10 * time.Second
	}
	if c.Headroom <= 0 {
		c.Headroom = 1.05
	}
	if c.ModelLoadDelay <= 0 {
		c.ModelLoadDelay = 500 * time.Millisecond
	}
	if c.ExecNoiseFrac < 0 {
		c.ExecNoiseFrac = 0
	} else if c.ExecNoiseFrac == 0 {
		c.ExecNoiseFrac = 0.02
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = time.Second
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 1
	}
	if err := c.Faults.Validate(c.Cluster.Size()); err != nil {
		return c, err
	}
	return c, nil
}

// Outcome is a query's fate in a response.
type Outcome string

// Query outcomes.
const (
	OutcomeServed  Outcome = "served"
	OutcomeLate    Outcome = "late"
	OutcomeDropped Outcome = "dropped"
)

// Response is the JSON reply of the inference endpoint.
type Response struct {
	Outcome   Outcome `json:"outcome"`
	Variant   string  `json:"variant,omitempty"`
	Accuracy  float64 `json:"accuracy,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	Family    string  `json:"family"`
}

// Server is the assembled live cluster.
type Server struct {
	cfg  Config
	slos []time.Duration
	clk  clock

	mu     sync.Mutex
	rng    *numeric.RNG
	table  *router.Table
	guard  *overload.Guard
	plan   *allocator.Allocation
	stats  *controlplane.Stats
	byName map[string]int
	// down[d] marks device d as failed (guarded by mu).
	down []bool

	// controller is only ever touched from the control loop goroutine (and
	// NewServer before it starts); fault handlers reach it through reallocc.
	controller *controlplane.Controller
	workers    []*liveWorker

	// reallocc carries failure/recovery re-allocation triggers into the
	// control loop, keeping the controller single-goroutine.
	reallocc chan string

	// sink reports every query transition and device event, under its own
	// leaf lock. The registry, tracer and flight recorder back the HTTP
	// endpoints; the recorder is sampled off a ticker; the router counters
	// instrument the routing table.
	sink     *lifecycle.Sink
	registry *telemetry.Registry
	tracer   *telemetry.Tracer
	recorder *tsdb.Recorder
	flight   *flightrec.Recorder
	rc       telemetry.RouterCounters

	// draining refuses new queries while in-flight ones (counted by
	// inflight) finish — the graceful-shutdown half of overload protection.
	draining atomic.Bool
	inflight atomic.Int64

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewServer assembles and starts the cluster: the initial allocation is
// solved synchronously (for idle demand), workers spin up, and the
// controller loop begins.
func NewServer(cfg Config) (*Server, error) {
	return newServer(cfg, wallClock{start: time.Now()})
}

// newServer is NewServer on the given clock.
func newServer(cfg Config, clk clock) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		clk:      clk,
		rng:      numeric.NewRNG(cfg.Seed),
		byName:   make(map[string]int),
		down:     make([]bool, cfg.Cluster.Size()),
		reallocc: make(chan string, 8),
		registry: cfg.Telemetry,
		tracer:   cfg.Tracer,
		rc:       telemetry.NewRouterCounters(cfg.Telemetry),
		stop:     make(chan struct{}),
	}
	for q, f := range cfg.Families {
		s.byName[f.Name] = q
		s.slos = append(s.slos, profiles.FamilySLO(f, cfg.SLOMultiplier))
	}
	s.stats = controlplane.NewStats(len(cfg.Families), int(cfg.ControlPeriod/time.Second), 1.5)
	s.controller = controlplane.NewController(
		cfg.Allocator, cfg.Cluster, cfg.Families, s.slos, cfg.ControlPeriod, cfg.ControlPeriod/3)
	s.controller.Instrument(cfg.Telemetry)
	s.controller.SetHistoryLimit(cfg.PlanHistory)
	s.recorder = cfg.TSDB
	s.flight = cfg.Flight
	if cfg.Overload != nil {
		s.guard = overload.New(*cfg.Overload, len(cfg.Families), cfg.Cluster.Size())
		s.guard.Instrument(cfg.Telemetry)
	}
	s.sink = lifecycle.New(lifecycle.Config{
		Families:        models.FamilyNames(cfg.Families),
		MetricsInterval: cfg.MetricsInterval,
		Devices:         cfg.Cluster.Size(),
		MaxRetries:      cfg.MaxRetries,
		Registry:        cfg.Telemetry,
		Tracer:          cfg.Tracer,
		TSDB:            cfg.TSDB,
		Flight:          cfg.Flight,
		Controller:      s.controller,
		Guard:           s.guard,
	})
	s.recorder.Init(len(cfg.Families), s.onBurn)

	for _, dev := range cfg.Cluster.Devices() {
		w := newLiveWorker(s, dev, cfg.Batching())
		s.workers = append(s.workers, w)
	}

	initial := make([]float64, len(cfg.Families))
	for q := range initial {
		if q < len(cfg.InitialDemand) {
			initial[q] = cfg.InitialDemand[q] * cfg.Headroom
		}
	}
	plan, err := s.controller.Reallocate(0, initial, "initial")
	if err != nil {
		return nil, fmt.Errorf("serving: initial allocation: %w", err)
	}
	s.sink.Plan(0, int32(s.controller.LastPlanSeq()), plan, "initial")
	s.applyPlan(plan, true)

	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop(&s.wg)
	}
	s.wg.Add(1)
	go s.controlLoop()
	if s.recorder != nil || s.flight != nil {
		s.wg.Add(1)
		go s.sampleLoop()
	}
	if s.guard != nil {
		s.wg.Add(1)
		go s.overloadLoop()
	}
	if !cfg.Faults.Empty() {
		s.wg.Add(1)
		go s.faultLoop()
	}
	return s, nil
}

// Close stops the workers and the controller loop. Safe to call more than
// once (Drain ends in a Close, and callers often defer another).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		for _, w := range s.workers {
			w.shutdown()
		}
		s.wg.Wait()
	})
}

// Drain performs a graceful shutdown: new queries are refused immediately
// (Infer returns a drop), in-flight queries keep executing, and once none
// remain — or the timeout expires — the server stops. Returns true when
// every in-flight query finished within the bound.
func (s *Server) Drain(timeout time.Duration) bool {
	s.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	drained := s.inflight.Load() == 0
	s.Close()
	return drained
}

// Draining reports whether the server is refusing new queries.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight returns the number of queries currently inside Infer.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// now returns the elapsed run time (all internal timestamps are durations
// since server start, matching the simulator's time base).
func (s *Server) now() time.Duration { return s.clk.now() }

func (s *Server) controlLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ControlPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.maybeReallocate("periodic")
		case trig := <-s.reallocc:
			s.maybeReallocate(trig)
		}
	}
}

// sampleLoop drives the tsdb recorder off a wall-clock ticker: the same
// per-device snapshot the simulator takes on its virtual clock. The flight
// recorder's ring refresh rides the same tick, after the sample so it sees
// the fresh point.
func (s *Server) sampleLoop() {
	defer s.wg.Done()
	interval := s.recorder.SampleInterval()
	if interval <= 0 {
		// Flight recorder without a tsdb recorder: tick at the default
		// sampling cadence.
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			now := s.now()
			if s.recorder != nil {
				states := make([]tsdb.DeviceState, len(s.workers))
				for d, w := range s.workers {
					states[d] = w.deviceState()
					states[d].SatMilli, states[d].Pressured = s.guard.DeviceSignal(d)
				}
				s.recorder.Sample(now, states)
			}
			s.sink.Tick(now)
		}
	}
}

// onBurn receives SLO burn-state transitions from the tsdb recorder: the
// sink publishes them, and — when enabled — a burn start nudges the control
// loop. Runs under the recorder's lock; requestRealloc is a non-blocking
// channel send.
func (s *Server) onBurn(ev tsdb.BurnEvent) {
	s.sink.Burn(ev)
	if ev.Start && s.cfg.SLOBurnRealloc {
		s.requestRealloc("slo_burn")
	}
}

// overloadLoop advances the overload guard's time-based edges (escalation,
// deferred degrades, restores) at the same 1s cadence the simulator
// schedules on its virtual clock.
func (s *Server) overloadLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.sink.Overload(s.guard.Tick(s.now()))
		}
	}
}

// requestRealloc asks the control loop for a triggered re-allocation. A full
// channel means one is already queued; the trigger coalesces into it.
func (s *Server) requestRealloc(trigger string) {
	select {
	case s.reallocc <- trigger:
	default:
	}
}

// maybeReallocate runs one controller invocation on the control loop
// goroutine. Periodic ticks are suppressed when demand has not moved;
// failure/recovery triggers honor the cooldown by re-arming themselves at
// its boundary rather than being dropped.
func (s *Server) maybeReallocate(trigger string) {
	if !s.controller.Dynamic() {
		return
	}
	now := s.now()
	s.mu.Lock()
	demand := s.stats.Estimates(now)
	downCopy := append([]bool(nil), s.down...)
	s.mu.Unlock()
	if trigger == "periodic" && !s.controller.DemandChanged(demand, 0.1) {
		return
	}
	if trigger != "periodic" {
		if rem := s.controller.CooldownRemaining(now); rem > 0 {
			trig := trigger
			time.AfterFunc(rem, func() { s.requestRealloc(trig) })
			return
		}
	}
	for q := range demand {
		demand[q] *= s.cfg.Headroom
	}
	s.controller.SetCluster(s.cfg.Cluster.WithHealth(downCopy))
	plan, err := s.controller.Reallocate(now, demand, trigger)
	if err != nil {
		return // keep serving on the old plan
	}
	s.sink.Plan(s.now(), int32(s.controller.LastPlanSeq()), plan, trigger)
	s.applyPlan(plan, false)
}

// applyPlan installs a new allocation on the live workers.
func (s *Server) applyPlan(plan *allocator.Allocation, initial bool) {
	s.mu.Lock()
	s.plan = plan
	// Plans are produced for this server's own family set, so the shapes
	// always agree; a mismatch would only indicate an internal bug and the
	// plan is still applied.
	_ = s.stats.SetPlanned(plan.ServedQPS) //lint:allow errcheck length mismatch impossible for self-produced plans; error would only flag an internal bug and the plan applies regardless
	downCopy := append([]bool(nil), s.down...)
	s.mu.Unlock()
	var rerouted []liveQuery
	for d, w := range s.workers {
		if d < len(downCopy) && downCopy[d] {
			// Failed devices host nothing; recovery reloads from the
			// then-current plan.
			continue
		}
		if plan.HostedID(d) == w.hostedID() {
			continue
		}
		delay := s.cfg.ModelLoadDelay
		if initial {
			delay = 0
		}
		rerouted = append(rerouted, w.setHosted(plan.Hosted[d], delay)...)
	}
	s.rebuildTable()
	for _, q := range rerouted {
		s.dispatch(q)
	}
}

// rebuildTable rebuilds the routing table from the current plan, excluding
// workers that are still loading.
func (s *Server) rebuildTable() {
	s.mu.Lock()
	now := s.now()
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
			if (d < len(s.down) && s.down[d]) || s.workers[d].loading(now) {
				continue
			}
			masked.Routing[q][d] = y
		}
	}
	s.table = router.BuildTable(&masked, len(s.cfg.Families))
	s.table.SetCounters(s.rc)
	s.table.SetAdmission(admit)
	s.mu.Unlock()
	// Guard profiles refresh outside s.mu: guardProfile takes each worker's
	// lock, and s.mu must not nest around w.mu.
	s.syncGuardPlan()
}

// syncGuardPlan refreshes the overload guard's per-device profiles from the
// workers' current hosting (rebuildTable's call sites cover every hosting
// change: plan application, load completion, failure, recovery).
func (s *Server) syncGuardPlan() {
	if s.guard == nil {
		return
	}
	profs := make([]overload.DeviceProfile, len(s.workers))
	for d, w := range s.workers {
		profs[d] = w.guardProfile()
	}
	s.guard.SetPlan(s.now(), profs)
}

// pickDevice routes one query under the server lock, consulting the
// overload guard when enabled. Returns -1 when the query should be dropped
// (the cause distinguishes no serving device / admission-fraction shed from
// — with the guard on — a deadline admission rejection, where the query
// provably cannot meet its SLO behind the picked device's backlog).
func (s *Server) pickDevice(now time.Duration, q liveQuery) (int, telemetry.Cause) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.guard == nil {
		d := s.table.Pick(q.Family, s.rng)
		if d < 0 {
			return -1, telemetry.CauseNoRoute
		}
		return d, telemetry.CauseNone
	}
	d := s.table.PickExcluding(q.Family, s.rng, func(dev int) bool {
		return s.guard.Banned(q.Family, dev)
	})
	//lint:allow lockorder established order Server.mu → Guard.mu (also liveWorker.mu → Guard.mu); Guard methods are leaf locks that never call back into serving
	if d >= 0 && !s.guard.Admit(now, d, q.Deadline) {
		return -1, telemetry.CauseShedAdmission
	}
	if d < 0 {
		return -1, telemetry.CauseNoRoute
	}
	return d, telemetry.CauseNone
}

// Infer serves one query synchronously: routed, queued, batched, executed.
func (s *Server) Infer(family string) Response {
	f, ok := s.byName[family]
	if !ok {
		return Response{Outcome: OutcomeDropped, Family: family}
	}
	done := make(chan Response, 1)
	s.arrive(f, done)
	return <-done
}

// arrive admits one query of family f; its response arrives on done.
func (s *Server) arrive(f int, done chan Response) {
	now := s.now()
	s.inflight.Add(1)
	s.mu.Lock()
	s.stats.Observe(now, f)
	s.mu.Unlock()
	q := liveQuery{
		ID:       s.sink.Arrive(now, f),
		Family:   f,
		Arrival:  now,
		Deadline: now + s.slos[f],
		Reply:    done,
	}
	if s.draining.Load() {
		// Graceful drain: refuse new work immediately; in-flight batches
		// keep executing.
		s.drop(q, telemetry.CauseDraining)
		return
	}
	s.dispatch(q)
}

func (s *Server) dispatch(q liveQuery) {
	now := s.now()
	d, cause := s.pickDevice(now, q)
	if d < 0 {
		s.drop(q, cause)
		return
	}
	s.sink.Route(now, &q, d)
	s.workers[d].enqueue(q)
}

// drop reports q dropped for cause and answers its caller.
func (s *Server) drop(q liveQuery, cause telemetry.Cause) {
	s.sink.Drop(s.now(), &q, cause)
	s.dropped(q)
}

// dropped answers a query whose drop the sink has reported.
func (s *Server) dropped(q liveQuery) {
	s.respond(q, Response{Outcome: OutcomeDropped, Family: s.cfg.Families[q.Family].Name,
		LatencyMS: float64(s.now()-q.Arrival) / float64(time.Millisecond)})
}

// finish reports q's completion at now on variant v and answers its caller.
func (s *Server) finish(now time.Duration, q *liveQuery, v models.Variant, device, batch int) {
	resp := Response{
		Outcome:   OutcomeLate,
		Variant:   v.ID(),
		Accuracy:  v.Accuracy,
		Family:    s.cfg.Families[q.Family].Name,
		LatencyMS: float64(now-q.Arrival) / float64(time.Millisecond),
	}
	if s.sink.Finish(now, q, v.Accuracy, device, batch) {
		resp.Outcome = OutcomeServed
	}
	s.respond(*q, resp)
}

// respond delivers q's response to its caller; q leaves the server.
func (s *Server) respond(q liveQuery, r Response) {
	s.inflight.Add(-1)
	q.Reply.(chan Response) <- r
}

// Summary returns the run metrics so far.
func (s *Server) Summary() metrics.Summary { return s.sink.Summary() }

// Collector exposes the run's metrics collector for final-dump assembly
// (report.Build). Read it only after the server stopped: until then the
// lifecycle sink writes it under the sink's own lock.
func (s *Server) Collector() *metrics.Collector { return s.sink.Collector() }

// Allocation returns the hosted variant per device of the current plan.
func (s *Server) Allocation() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string)
	for d := range s.workers {
		out[s.cfg.Cluster.Device(d).Name] = s.plan.HostedID(d)
	}
	return out
}

// History returns the controller's decision audit log.
func (s *Server) History() []controlplane.PlanRecord { return s.controller.History() }

// DeviceHealth is one device's entry in the /healthz report.
type DeviceHealth struct {
	Device int    `json:"device"`
	Name   string `json:"name"`
	Up     bool   `json:"up"`
}

// Health reports each device's up/down state, the healthy count, and the
// overload guard's state (per-device saturation plus any active emergency
// degradation episode) so external probes can distinguish "degraded by
// plan" — the controller chose cheaper variants — from "degraded by
// overload" — the guard masked accuracy tiers reactively.
type Health struct {
	Status  string         `json:"status"` // "ok" or "degraded"
	Up      int            `json:"up"`
	Total   int            `json:"total"`
	Devices []DeviceHealth `json:"devices"`
	// Draining marks a server refusing new queries during graceful
	// shutdown.
	Draining bool `json:"draining,omitempty"`
	// Overload is the guard's snapshot (Enabled false when the guard is
	// off); Overload.Episodes lists families under emergency degradation.
	Overload overload.State `json:"overload"`
	// Build identifies the serving binary (go version, module, VCS
	// revision), so probes and dashboards can tell which build is live.
	Build buildinfo.Info `json:"build"`
}

// Health returns the current device health mask.
func (s *Server) Health() Health {
	s.mu.Lock()
	downCopy := append([]bool(nil), s.down...)
	s.mu.Unlock()
	h := Health{Status: "ok", Total: len(downCopy), Build: buildinfo.Get()}
	h.Draining = s.draining.Load()
	h.Overload = s.guard.State()
	for d, dn := range downCopy {
		h.Devices = append(h.Devices, DeviceHealth{
			Device: d,
			Name:   s.cfg.Cluster.Device(d).Name,
			Up:     !dn,
		})
		if !dn {
			h.Up++
		}
	}
	if h.Up < h.Total || len(h.Overload.Episodes) > 0 {
		h.Status = "degraded"
	}
	return h
}

// Handler returns the HTTP API:
//
//	POST /v1/query?family=NAME  → Response JSON
//	GET  /v1/stats              → metrics.Summary JSON
//	GET  /v1/allocation         → device → variant JSON
//	GET  /v1/families           → registered family names
//	GET  /metrics               → counters/gauges, text "name value" lines;
//	                              Prometheus text exposition (# HELP/# TYPE)
//	                              when the Accept header asks for version
//	                              0.0.4 / OpenMetrics or ?format=prometheus
//	GET  /healthz               → device health mask JSON (503 when no
//	                              device is up)
//	GET  /debug/allocations     → controller decision audit log JSON
//	GET  /debug/incidents       → flight recorder's incident bundles JSON
//	POST /debug/incident        → trigger a manual incident bundle; with
//	                              ?profile=cpu,heap also capture pprof
//	                              profiles next to the bundle (live mode,
//	                              needs an incident directory)
//	GET  /debug/query?id=N      → live SLO attribution for one query: its
//	                              latency waterfall, causal joins and blame
//	                              label JSON (404 if not in the trace)
//	GET  /debug/pprof/...       → net/http/pprof profiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		family := r.URL.Query().Get("family")
		if family == "" {
			http.Error(w, "family parameter required", http.StatusBadRequest)
			return
		}
		if _, ok := s.byName[family]; !ok {
			http.Error(w, "unknown family "+family, http.StatusNotFound)
			return
		}
		writeJSON(w, s.Infer(family))
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Summary())
	})
	mux.HandleFunc("/v1/allocation", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Allocation())
	})
	mux.HandleFunc("/v1/families", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, models.FamilyNames(s.cfg.Families))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", telemetry.PrometheusContentType)
			fmt.Fprintf(w, "# HELP uptime_seconds Seconds since server start.\n# TYPE uptime_seconds gauge\nuptime_seconds %d\n",
				int64(s.now()/time.Second))
			if err := s.registry.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			// The collector's log-linear latency histograms export as one
			// native Prometheus histogram family (cumulative le buckets).
			if err := s.sink.WritePrometheusLatency(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "uptime_seconds %d\n", int64(s.now()/time.Second))
		if err := s.registry.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		if h.Up == 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(h)
			return
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("/debug/allocations", func(w http.ResponseWriter, r *http.Request) {
		// History returns a copy; sanitize it so the endpoint's output is a
		// deterministic function of the decision sequence.
		writeJSON(w, controlplane.SanitizePlans(s.History()))
	})
	mux.HandleFunc("/debug/incidents", func(w http.ResponseWriter, r *http.Request) {
		list := s.flight.Incidents()
		if list == nil {
			list = []*flightrec.Bundle{}
		}
		writeJSON(w, list)
	})
	mux.HandleFunc("/debug/incident", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if s.flight == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotImplemented)
			return
		}
		b := s.flight.Trigger(s.now(), "manual", r.URL.Query().Get("detail"), -1, -1)
		if kinds := r.URL.Query().Get("profile"); kinds != "" {
			if err := s.captureProfiles(b.ID, kinds); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		writeJSON(w, b)
	})
	mux.HandleFunc("/debug/query", func(w http.ResponseWriter, r *http.Request) {
		if s.tracer == nil {
			http.Error(w, "lifecycle tracer disabled", http.StatusNotImplemented)
			return
		}
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "id parameter required (a query id, counting from 0)", http.StatusBadRequest)
			return
		}
		rep := attrib.Analyze(attrib.Input{
			Events:       s.tracer.Events(),
			Plans:        s.History(),
			FamilyNames:  models.FamilyNames(s.cfg.Families),
			TraceDropped: s.tracer.Dropped(),
		})
		for i := range rep.Queries {
			if rep.Queries[i].Query == id {
				writeJSON(w, &rep.Queries[i])
				return
			}
		}
		http.Error(w, "query not in trace (or unfinished)", http.StatusNotFound)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// wantsPrometheus decides the /metrics representation: the Prometheus text
// exposition format when the scraper asks for it (the standard Accept
// header carries "version=0.0.4"; OpenMetrics scrapers are close enough to
// honor too) or via ?format=prometheus, the legacy plain lines otherwise.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "version=0.0.4") || strings.Contains(accept, "openmetrics")
}

// captureProfiles writes pprof captures next to the incident bundle —
// <id>-cpu.pprof (a 500ms sample) and/or <id>-heap.pprof. This lives in the
// serving layer, not flightrec: CPU profiling needs a wall-clock sampling
// window, and the bundle core stays byte-deterministic without it.
func (s *Server) captureProfiles(id, kinds string) error {
	dir := s.flight.Dir()
	if dir == "" {
		return fmt.Errorf("profile capture needs an incident directory (-incident-dir)")
	}
	for _, kind := range strings.Split(kinds, ",") {
		switch strings.TrimSpace(kind) {
		case "cpu":
			f, err := os.Create(filepath.Join(dir, id+"-cpu.pprof"))
			if err != nil {
				return err
			}
			if err := rpprof.StartCPUProfile(f); err != nil {
				_ = f.Close()
				return err
			}
			time.Sleep(500 * time.Millisecond)
			rpprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return err
			}
		case "heap":
			f, err := os.Create(filepath.Join(dir, id+"-heap.pprof"))
			if err != nil {
				return err
			}
			if err := rpprof.WriteHeapProfile(f); err != nil {
				_ = f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		case "":
		default:
			return fmt.Errorf("unknown profile kind %q (want cpu, heap)", kind)
		}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
