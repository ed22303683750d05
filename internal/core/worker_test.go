package core

import (
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/profiles"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
)

// harness builds a 1-device system with a manually installed plan so that
// worker behaviour can be observed in isolation.
func harness(t *testing.T, policy batching.Policy) (*System, *worker) {
	t.Helper()
	cfg := smallConfig(t)
	cfg.Batching = func() batching.Policy { return policy }
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.workers[0]
}

func TestWorkerQueueExpiryDropsDoomedQueries(t *testing.T) {
	sys, w := harness(t, batching.NewAccScale())
	// Install a hosted variant manually (CPU, efficientnet b0).
	ref := &allocator.VariantRef{Family: 0, Variant: sys.cfg.Families[0].Variants[0]}
	w.setHosted(ref, 0, 0)

	// A query whose deadline is already closer than even a batch-1 run.
	sys.engine.Schedule(0, func() {
		w.enqueue(query{ID: 1, Family: 0, Arrival: 0, Deadline: time.Millisecond})
	})
	sys.engine.Run()
	sum := sys.collector.Summarize(-1)
	if sum.Dropped != 1 {
		t.Fatalf("doomed query not dropped: %+v", sum)
	}
	if n := w.dev.QueueLen(); n != 0 {
		t.Fatalf("queue not drained: %d", n)
	}
}

func TestWorkerExecutesAndObservesBatch(t *testing.T) {
	sys, w := harness(t, batching.NewAIMD())
	// Worker 0 is a CPU: host the family's fastest variant, the only one
	// SLO-feasible there.
	ref := &allocator.VariantRef{Family: 0, Variant: sys.cfg.Families[0].Variants[0]}
	w.setHosted(ref, 0, 0)
	slo := sys.slos[0]

	sys.engine.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			w.enqueue(query{ID: uint64(i), Family: 0, Arrival: 0, Deadline: 4 * slo})
		}
	})
	sys.engine.Run()
	sum := sys.collector.Summarize(-1)
	if sum.Served+sum.Late != 3 {
		t.Fatalf("batch incomplete: %+v", sum)
	}
	if sys.nextBatchID == 0 {
		t.Fatal("no batches recorded")
	}
}

// TestWorkerLatencyFollowsDeviceSpec pins that batch latency comes from the
// device's own spec, so a cluster.TypeCount.Spec override reaches the data
// path and not only the planner.
func TestWorkerLatencyFollowsDeviceSpec(t *testing.T) {
	cfg := smallConfig(t)
	spec := cluster.Spec(cluster.CPU)
	spec.FixedOverheadMS = 0.002
	spec.EffGFLOPsPerMS = 1e4
	cfg.Cluster = cluster.New([]cluster.TypeCount{{Type: cluster.CPU, Count: 1, Spec: spec}})
	cfg.Batching = func() batching.Policy { return batching.NewAIMD() }
	cfg.Tracer = telemetry.NewTracer(64)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := sys.workers[0]
	v := cfg.Families[0].Variants[0]
	w.setHosted(&allocator.VariantRef{Family: 0, Variant: v}, 0, 0)
	sys.engine.Schedule(0, func() {
		w.enqueue(query{Family: 0, Deadline: time.Second})
	})
	sys.engine.Run()
	want := profiles.Latency(spec, v, 1)
	var done []time.Duration
	for _, ev := range cfg.Tracer.Events() {
		if ev.Kind == telemetry.EvDone {
			done = append(done, ev.At)
		}
	}
	if len(done) != 1 || done[0] != want {
		t.Fatalf("completions at %v, want one at %v (the overridden spec's batch-1 latency)", done, want)
	}
}

func TestWorkerWithoutModelShedsEverything(t *testing.T) {
	sys, w := harness(t, batching.NewAccScale())
	sys.engine.Schedule(0, func() {
		w.enqueue(query{ID: 1, Family: 0, Arrival: 0, Deadline: time.Second})
	})
	sys.engine.Run()
	if sum := sys.collector.Summarize(-1); sum.Dropped != 1 {
		t.Fatalf("idle-device query not shed: %+v", sum)
	}
}

func TestWorkerLoadingDelaysExecution(t *testing.T) {
	sys, w := harness(t, batching.NewAccScale())
	ref := &allocator.VariantRef{Family: 0, Variant: sys.cfg.Families[0].Variants[0]}
	slo := sys.slos[0]
	deadline := sys.cfg.ModelLoadDelay + 3*slo
	sys.engine.Schedule(0, func() {
		w.setHosted(ref, sys.engine.Now(), sys.cfg.ModelLoadDelay) // starts the load timer
		w.enqueue(query{ID: 1, Family: 0, Arrival: 0, Deadline: deadline})
	})
	sys.engine.Run()
	sum := sys.collector.Summarize(-1)
	if sum.Served != 1 {
		t.Fatalf("query not served after load: %+v", sum)
	}
	// Completion cannot precede the model-load delay.
	if sum.MeanLatency < sys.cfg.ModelLoadDelay {
		t.Fatalf("latency %v below the load delay %v", sum.MeanLatency, sys.cfg.ModelLoadDelay)
	}
}

// rateProbe is a batching policy that records the arrival rate each
// decision sees and never executes.
type rateProbe struct{ rates []float64 }

func (*rateProbe) Name() string     { return "rate-probe" }
func (*rateProbe) Observe(int, int) {}
func (*rateProbe) Reset()           {}
func (p *rateProbe) Decide(ctx *batching.Context) batching.Decision {
	p.rates = append(p.rates, ctx.ArrivalRate)
	return batching.Decision{Action: batching.Idle}
}

func TestWorkerRateEstimator(t *testing.T) {
	probe := &rateProbe{}
	sys, w := harness(t, probe)
	w.setHosted(&allocator.VariantRef{Family: 0, Variant: sys.cfg.Families[0].Variants[0]}, 0, 0)
	arrive := func(at time.Duration) {
		sys.engine.Schedule(at, func() {
			w.enqueue(query{Family: 0, Arrival: at, Deadline: time.Hour})
		})
	}
	// 100 arrivals in second 0, then silence.
	for i := 0; i < 100; i++ {
		arrive(time.Duration(i) * 10 * time.Millisecond)
	}
	sys.engine.Run()
	if r := probe.rates[len(probe.rates)-1]; r < 90 {
		t.Fatalf("open-bucket rate %v, want ~100", r)
	}
	// Close the bucket and decay through idle seconds.
	arrive(5 * time.Second)
	sys.engine.Run()
	if r := probe.rates[len(probe.rates)-1]; r > 40 {
		t.Fatalf("rate %v did not decay after idle seconds", r)
	}
}

func TestRunArrivalsRejectsBadInitialDemand(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunArrivals(nil, time.Second, []float64{1}); err == nil {
		t.Fatal("mismatched initial demand accepted")
	}
}

func TestRunArrivalsExplicitSequence(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arr []trace.Arrival
	for i := 0; i < 200; i++ {
		arr = append(arr, trace.Arrival{Time: time.Duration(i) * 50 * time.Millisecond, Family: i % 2})
	}
	res, err := sys.RunArrivals(arr, 10*time.Second, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Queries != 200 {
		t.Fatalf("queries %d", res.Summary.Queries)
	}
	if res.Summary.Served == 0 {
		t.Fatal("nothing served")
	}
}
