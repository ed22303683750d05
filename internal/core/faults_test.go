package core

import (
	"testing"
	"time"

	"proteus/internal/attrib"
	"proteus/internal/cluster"
	"proteus/internal/telemetry"
)

// TestFaultToleranceKillQuarter is the graceful-degradation scenario: a
// quarter of the fleet dies mid-trace and later recovers. The run must
// produce a "failure"-triggered re-allocation onto the survivors, conserve
// every injected query, and recover accuracy after the devices return.
func TestFaultToleranceKillQuarter(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 60*time.Second, 120*time.Second)
	if len(cfg.Faults.Events) != 2 {
		t.Fatalf("expected 2 victims, got %d", len(cfg.Faults.Events))
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 300, 180))
	if err != nil {
		t.Fatal(err)
	}

	// Conservation: every injected query is accounted for exactly once.
	s := res.Summary
	if s.Queries == 0 {
		t.Fatal("no queries simulated")
	}
	if s.Served+s.Late+s.Dropped != s.Queries {
		t.Fatalf("conservation violated: %d served + %d late + %d dropped != %d queries",
			s.Served, s.Late, s.Dropped, s.Queries)
	}

	// Failure accounting.
	if s.Failures != 2 || s.Recoveries != 2 {
		t.Fatalf("failures=%d recoveries=%d, want 2/2", s.Failures, s.Recoveries)
	}
	if s.Requeued == 0 {
		t.Fatal("killing loaded devices must strand queries")
	}
	if s.MeanTimeToRecover <= 0 {
		t.Fatal("handled failures must yield a time-to-recover")
	}

	// The control plane must have re-planned on the failure (and again on
	// recovery), not just at the periodic ticks.
	var failurePlan, recoveryPlan bool
	for _, p := range res.Plans {
		switch p.Trigger {
		case "failure":
			failurePlan = true
			if p.At < 60*time.Second {
				t.Fatalf("failure plan at %v predates the failure", p.At)
			}
		case "recovery":
			recoveryPlan = true
		}
	}
	if !failurePlan {
		t.Fatalf("no failure-triggered plan in history: %+v", res.Plans)
	}
	if !recoveryPlan {
		t.Fatalf("no recovery-triggered plan in history: %+v", res.Plans)
	}

	// The failure plan must live entirely on the survivors.
	downAt := map[int]bool{}
	for _, ev := range cfg.Faults.Events {
		downAt[ev.Device] = true
	}
	for _, p := range res.Plans {
		if p.Trigger != "failure" {
			continue
		}
		for id, n := range p.HostedVariants {
			if n > sys.cfg.Cluster.Size()-len(downAt) {
				t.Fatalf("failure plan hosts %s on %d devices with only %d healthy",
					id, n, sys.cfg.Cluster.Size()-len(downAt))
			}
		}
	}

	// Accuracy over the timeline: compare the mean effective accuracy while
	// degraded (devices down) against after recovery. With a quarter of the
	// fleet gone at this load, the MILP must trade accuracy for coverage,
	// and win it back once capacity returns.
	series := res.Collector.Series(-1)
	window := func(from, to time.Duration) (float64, int) {
		sum, n := 0.0, 0
		for _, p := range series {
			if p.Start < from || p.Start >= to {
				continue
			}
			if p.EffectiveAccuracy == p.EffectiveAccuracy { // skip NaN bins
				sum += p.EffectiveAccuracy
				n++
			}
		}
		return sum / float64(max(n, 1)), n
	}
	degraded, n1 := window(70*time.Second, 120*time.Second)
	recovered, n2 := window(140*time.Second, 180*time.Second)
	if n1 == 0 || n2 == 0 {
		t.Fatal("empty accuracy windows")
	}
	if degraded >= recovered {
		t.Fatalf("accuracy should dip while degraded (%.2f) and recover afterwards (%.2f)",
			degraded, recovered)
	}
}

// TestFaultRunsAreDeterministic pins the whole failure pipeline: two runs
// with the same seed and schedule must agree query for query.
func TestFaultRunsAreDeterministic(t *testing.T) {
	run := func() (int, int, int, int, int) {
		cfg := smallConfig(t)
		cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 30*time.Second, 60*time.Second)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(flatTrace(t, cfg.Families, 80, 90))
		if err != nil {
			t.Fatal(err)
		}
		s := res.Summary
		return s.Queries, s.Served, s.Dropped, s.Requeued, len(res.Plans)
	}
	q1, s1, d1, r1, p1 := run()
	q2, s2, d2, r2, p2 := run()
	if q1 != q2 || s1 != s2 || d1 != d2 || r1 != r2 || p1 != p2 {
		t.Fatalf("fault runs diverged: (%d %d %d %d %d) vs (%d %d %d %d %d)",
			q1, s1, d1, r1, p1, q2, s2, d2, r2, p2)
	}
}

// TestPermanentFailureDegradesButServes kills devices that never come back:
// the system must keep serving on the survivors for the rest of the run.
func TestPermanentFailureDegradesButServes(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 40*time.Second, 0)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 60, 120))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Recoveries != 0 {
		t.Fatalf("nothing should recover, got %d", s.Recoveries)
	}
	if s.Served+s.Late+s.Dropped != s.Queries {
		t.Fatal("conservation violated")
	}
	// The tail of the run still serves from the surviving devices.
	series := res.Collector.Series(-1)
	tail := series[len(series)-3:]
	for _, p := range tail {
		if p.ThroughputQPS <= 0 {
			t.Fatalf("no throughput at %v after permanent failure", p.Start)
		}
	}
}

// TestFaultScheduleValidatedByConfig pins the config-path validation.
func TestFaultScheduleValidatedByConfig(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Faults = &cluster.FailureSchedule{Events: []cluster.FailureEvent{
		{Device: 99, FailAt: time.Second},
	}}
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("out-of-range fault device must fail config validation")
	}
}

// TestFailureMidBatchAttributedMidflight kills loaded devices while their
// batches execute: the in-flight queries requeue as mid-flight losses, and
// latency attribution charges their wasted execution to reroute_midflight.
func TestFailureMidBatchAttributedMidflight(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Tracer = telemetry.NewTracer(1 << 17)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 20*time.Second, 0)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 300, 40))
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Tracer.Dropped(); n > 0 {
		t.Fatalf("trace ring dropped %d events", n)
	}
	rep := attrib.Analyze(attrib.Input{Events: cfg.Tracer.Events(), Plans: res.Plans})
	midflight := 0
	for _, e := range rep.Queries {
		if e.Components[attrib.CompRerouteMidflight] > 0 {
			midflight++
		}
	}
	if midflight == 0 {
		t.Fatal("no query charged to reroute_midflight: in-flight batches were not stranded as mid-flight losses")
	}
}
