package lifecycle

import (
	"sync"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/controlplane"
	"proteus/internal/device"
	"proteus/internal/flightrec"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// newSink builds a one-family, two-device sink over cfg's outputs.
func newSink(cfg Config) *Sink {
	cfg.Families = []string{"f"}
	cfg.MetricsInterval = time.Second
	cfg.Devices = 2
	cfg.Controller = controlplane.NewController(allocator.NewInfaasAccuracy(),
		cluster.New([]cluster.TypeCount{{Type: cluster.CPU, Count: 2}}), nil, nil, 0, 0)
	cfg.TSDB.Init(1, nil)
	return New(cfg)
}

func counter(reg *telemetry.Registry, name string) int64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// TestNilOutputs drives every report through a sink whose registry, tracer,
// recorder, flight recorder and guard are all off: the collector still
// counts, and nothing else is touched.
func TestNilOutputs(t *testing.T) {
	s := newSink(Config{MaxRetries: 1})
	ms := time.Millisecond
	q := device.Query{ID: s.Arrive(0, 0), Deadline: 10 * ms}
	s.Route(0, &q, 0)
	s.Enqueue(0, &q, 0)
	s.Wait()
	s.Idle()
	batch := []device.Query{q}
	if id := s.Start(ms, batch, 0); id != 0 {
		t.Fatalf("first batch id %d, want 0", id)
	}
	s.Finish(2*ms, &batch[0], 0.9, 0, 0)
	q2 := device.Query{ID: s.Arrive(ms, 0), Deadline: 10 * ms}
	if q2.ID != 1 {
		t.Fatalf("second query id %d, want 1", q2.ID)
	}
	s.Requeue(2*ms, &q2, telemetry.CauseDeviceFailure)
	s.Drop(3*ms, &q2, telemetry.CausePolicyDrop)
	s.Fail(3*ms, 1, "cpu-1")
	s.Recover(4 * ms)
	s.Provision()
	s.ModelLoad()
	s.Plan(4*ms, 1, &allocator.Allocation{DemandScale: 1}, "failure")
	s.Overload([]overload.Change{{At: 5 * ms, Kind: overload.Degrade, Level: 1, Episode: 1}})
	s.Burn(tsdb.BurnEvent{At: 5 * ms, Start: true})
	s.Tick(6 * ms)

	sum := s.Summary()
	if sum.Queries != 2 || sum.Served != 1 || sum.Dropped != 1 || sum.Requeued != 1 || sum.Retried != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Failures != 1 || sum.Recoveries != 1 || sum.MeanTimeToRecover != ms {
		t.Fatalf("failure accounting %+v", sum)
	}
}

// TestFinishDeadlineIsServed pins the served/late boundary: a query that
// completes exactly at its deadline is served, one nanosecond later is late
// — in the return value, the counters, the trace and the collector alike.
func TestFinishDeadlineIsServed(t *testing.T) {
	reg, tr := telemetry.NewRegistry(), telemetry.NewTracer(64)
	s := newSink(Config{Registry: reg, Tracer: tr, TSDB: tsdb.NewRecorder(tsdb.Config{}), MaxRetries: 1})
	deadline := 50 * time.Millisecond
	onTime := device.Query{ID: s.Arrive(0, 0), Deadline: deadline}
	late := device.Query{ID: s.Arrive(0, 0), Deadline: deadline - 1}
	if !s.Finish(deadline, &onTime, 0.8, 0, 0) {
		t.Error("completion at the deadline reported late")
	}
	if s.Finish(deadline, &late, 0.8, 0, 0) {
		t.Error("completion 1ns past the deadline reported served")
	}
	if n := counter(reg, "queries_served_total"); n != 1 {
		t.Errorf("queries_served_total %d, want 1", n)
	}
	if n := counter(reg, "queries_late_total"); n != 1 {
		t.Errorf("queries_late_total %d, want 1", n)
	}
	kinds := map[uint64]telemetry.EventKind{}
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.EvDone || ev.Kind == telemetry.EvLate {
			kinds[ev.Query] = ev.Kind
		}
	}
	if kinds[onTime.ID] != telemetry.EvDone || kinds[late.ID] != telemetry.EvLate {
		t.Errorf("traced outcomes %v, want done then late", kinds)
	}
	if sum := s.Summary(); sum.Served != 1 || sum.Late != 1 || sum.EffectiveAccuracy != 0.8 {
		t.Errorf("summary %+v", sum)
	}
}

// TestRequeueRetryBudget pins Requeue's retry decision: with budget 0 a
// stranded query is dropped for retry_budget at once; with budget 2 it is
// retried twice and dropped on its third strand. Every strand counts as a
// requeue; only granted retries count as retries.
func TestRequeueRetryBudget(t *testing.T) {
	for _, tc := range []struct {
		budget, retries int
	}{{0, 0}, {2, 2}} {
		reg, tr := telemetry.NewRegistry(), telemetry.NewTracer(64)
		s := newSink(Config{Registry: reg, Tracer: tr, MaxRetries: tc.budget})
		q := device.Query{ID: s.Arrive(0, 0), Deadline: time.Second}
		granted := 0
		for s.Requeue(time.Millisecond, &q, telemetry.CauseDeviceFailure) {
			granted++
			if granted > tc.budget {
				t.Fatalf("budget %d: retry %d granted", tc.budget, granted)
			}
		}
		if granted != tc.retries || q.Retries != tc.retries {
			t.Errorf("budget %d: %d retries granted (query says %d), want %d",
				tc.budget, granted, q.Retries, tc.retries)
		}
		for name, want := range map[string]int64{
			"queries_requeued_total": int64(tc.retries + 1),
			"queries_retried_total":  int64(tc.retries),
			"queries_dropped_total":  1,
		} {
			if n := counter(reg, name); n != want {
				t.Errorf("budget %d: %s %d, want %d", tc.budget, name, n, want)
			}
		}
		var drop telemetry.Event
		for _, ev := range tr.Events() {
			if ev.Kind == telemetry.EvDropped {
				drop = ev
			}
		}
		if drop.Cause != telemetry.CauseRetryBudget {
			t.Errorf("budget %d: drop cause %q, want retry_budget", tc.budget, drop.Cause)
		}
		if sum := s.Summary(); sum.Requeued != tc.retries+1 || sum.Retried != tc.retries || sum.Dropped != 1 {
			t.Errorf("budget %d: summary %+v", tc.budget, sum)
		}
	}
}

// TestConcurrentReports drives one sink from several goroutines at once, as
// the live server does — arrivals, completions, drops, requeues, burns
// from the recorder's callback and a burn publisher, sampling ticks flushing
// their bundles — and checks that every query is accounted for exactly once.
func TestConcurrentReports(t *testing.T) {
	reg, tr := telemetry.NewRegistry(), telemetry.NewTracer(1<<14)
	rec := tsdb.NewRecorder(tsdb.Config{SLO: tsdb.SLOConfig{ShortWindow: time.Second, LongWindow: time.Second}})
	s := newSink(Config{Registry: reg, Tracer: tr, TSDB: rec, Flight: flightrec.New(flightrec.Config{}), MaxRetries: 1})
	rec.Init(1, s.Burn)
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				now := time.Duration(i) * time.Millisecond
				q := device.Query{ID: s.Arrive(now, 0), Arrival: now, Deadline: now + 5*time.Millisecond}
				s.Enqueue(now, &q, g%2)
				switch i % 4 {
				case 0:
					s.Drop(now, &q, telemetry.CauseExpired)
				case 1:
					if !s.Requeue(now, &q, telemetry.CauseDeviceFailure) {
						t.Error("first strand refused a retry")
					}
					fallthrough
				default:
					batch := []device.Query{q}
					b := s.Start(now, batch, g%2)
					s.Finish(now+time.Duration(i%3)*4*time.Millisecond, &batch[0], 0.7, g%2, b)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			now := time.Duration(i) * 4 * time.Millisecond
			s.Burn(tsdb.BurnEvent{At: now, Start: i%2 == 0})
			rec.Sample(now, []tsdb.DeviceState{{Up: true}, {Up: true}})
			s.Tick(now)
		}
	}()
	wg.Wait()
	s.Tick(time.Second)

	const n = workers * perWorker
	sum := s.Summary()
	if sum.Queries != n || sum.Served+sum.Late+sum.Dropped != n || sum.Dropped != n/4 {
		t.Fatalf("conservation: %+v", sum)
	}
	if sum.Requeued != n/4 || sum.Retried != n/4 {
		t.Fatalf("requeues: %+v", sum)
	}
	for name, want := range map[string]int64{
		"queries_arrived_total":  n,
		"queries_dropped_total":  n / 4,
		"batches_executed_total": n - n/4,
	} {
		if got := counter(reg, name); got != want {
			t.Errorf("%s %d, want %d", name, got, want)
		}
	}
	if got := counter(reg, "queries_served_total") + counter(reg, "queries_late_total"); got != n-n/4 {
		t.Errorf("served+late %d, want %d", got, n-n/4)
	}
	if n := len(s.flight.Incidents()); n == 0 {
		t.Error("no burn bundle fired")
	}
}
