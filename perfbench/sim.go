package main

import (
	"fmt"
	"runtime"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/metrics"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// Sim workload shapes. sim-diurnal replays the Fig. 4 scenario: the
// Twitter-like diurnal demand curve of the end-to-end experiments (base
// 180, peak 560 QPS, 3 spikes, the curve drawn from the experiments' fixed
// trace seed) on ScaledTestbed(20). The workload seed draws the Poisson
// arrivals and the system's routing randomness. One trace replays with only
// a few control decisions, and their number varies from seed to seed, so a
// run replays diurnalScenarios independent arrival draws and reports their
// mean: that keeps seed-to-seed spread inside the metric bounds.
// sim-steady runs flat Poisson demand, split evenly over the families,
// inside the capacity of the paper's 40-device testbed: after the initial
// solve every control tick is suppressed and the data path does almost all
// the work. (A Zipf split leaves the smallest families at a few tens of QPS,
// where Poisson noise alone trips burst re-allocations on some seeds.)
const (
	diurnalScenarios = 5
	diurnalSeconds   = 300
	diurnalBaseQPS   = 180
	diurnalPeakQPS   = 560
	fig4TraceSeed    = 20240427

	steadySeconds = 2400
	steadyQPS     = 1000

	// setupReps is how many times each scenario's system is built; setup_s
	// is the median over all builds of a run.
	setupReps = 21
)

// simScenario is one seeded input of a sim workload.
type simScenario struct {
	cluster func() *cluster.Cluster
	trace   *trace.Trace
	seed    uint64
}

// zipfShares splits demand across the zoo's families the way the
// experiment traces do (Zipf, alpha 1.001).
func zipfShares(n int) []float64 {
	z := numeric.NewZipf(n, 1.001)
	out := make([]float64, n)
	for f := range out {
		out[f] = z.P(f)
	}
	return out
}

func simScenarios(workload string, seed uint64) []simScenario {
	fams := models.FamilyNames(models.Zoo())
	rng := numeric.NewRNG(seed)
	switch workload {
	case "sim-diurnal":
		tr := trace.NewDiurnal(trace.DiurnalConfig{
			Seconds:           diurnalSeconds,
			BaseQPS:           diurnalBaseQPS,
			DiurnalAmplitude:  diurnalPeakQPS - diurnalBaseQPS,
			PeriodSeconds:     diurnalSeconds * 3,
			Spikes:            3,
			SpikeMagnitude:    diurnalPeakQPS / 8,
			SpikeWidthSeconds: diurnalSeconds / 20,
			NoiseFrac:         0.03,
			ZipfAlpha:         1.001,
			FamilyPhaseSpread: 0.4,
			Families:          fams,
			Seed:              fig4TraceSeed,
		})
		out := make([]simScenario, diurnalScenarios)
		for i := range out {
			out[i] = simScenario{cluster: func() *cluster.Cluster { return cluster.ScaledTestbed(20) }, trace: tr, seed: rng.Uint64()}
		}
		return out
	case "sim-steady":
		rates := make([]float64, len(fams))
		for f := range rates {
			rates[f] = steadyQPS / float64(len(fams))
		}
		tr := trace.NewFlat(fams, rates, steadySeconds)
		return []simScenario{{cluster: cluster.PaperTestbed, trace: tr, seed: rng.Uint64()}}
	}
	return nil
}

// simRun is the outcome of one System.Run.
type simRun struct {
	summary    metrics.Summary
	latency    *tsdb.Histogram
	plans      planCounts
	modelLoads int
	seconds    int
	setups     []time.Duration
	wall       time.Duration
	cpu        time.Duration
	mem        memDelta
	peaks      peaks
	spans      []span
	registry   *telemetry.Registry
	problems   []string
}

// fingerprint holds the outputs that must repeat exactly for a seed.
type fingerprint struct {
	queries, served, late, dropped int
	violation, accuracy            float64
	nodes, backoffs                int
}

func (r *simRun) fingerprint() fingerprint {
	s := r.summary
	return fingerprint{s.Queries, s.Served, s.Late, s.Dropped, s.ViolationRatio, s.EffectiveAccuracy, r.plans.nodes, r.plans.backoffs}
}

// zooAccuracyRange is the lowest and highest variant accuracy in the zoo.
func zooAccuracyRange() (lo, hi float64) {
	lo, hi = 100, 0
	for _, f := range models.Zoo() {
		lo = min(lo, f.LeastAccurate().Accuracy)
		hi = max(hi, f.MostAccurate().Accuracy)
	}
	return lo, hi
}

// runScenario builds the system setupReps times (timing each NewSystem),
// then replays the scenario on the last one. With traced set it wraps the
// allocator and batching policy in span probes and attaches a telemetry
// registry; otherwise the system runs exactly as configured by the
// experiments.
func runScenario(sc simScenario, traced bool) (*simRun, error) {
	var spans *spanRecorder
	var reg *telemetry.Registry
	if traced {
		spans = newSpanRecorder()
		reg = telemetry.NewRegistry()
	}
	out := &simRun{seconds: sc.trace.Seconds(), registry: reg}
	var sys *core.System
	for i := 0; i < setupReps; i++ {
		alloc, err := proteusAllocator(spans)
		if err != nil {
			return nil, err
		}
		cfg := core.Config{
			Cluster:   sc.cluster(),
			Families:  models.Zoo(),
			Allocator: alloc,
			Batching:  accScale(spans),
			Telemetry: reg,
			Seed:      sc.seed,
		}
		t0 := time.Now()
		sys, err = core.NewSystem(cfg)
		out.setups = append(out.setups, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("core.NewSystem: %w", err)
		}
	}

	runtime.GC()
	m0 := readMem()
	c0 := cpuTime()
	smp := startPeakSampler(nil)
	runID := spans.begin(spanRun, 0)
	spans.setScope(runID)
	t0 := time.Now()
	res, err := sys.Run(sc.trace)
	out.wall = time.Since(t0)
	spans.end(runID)
	out.peaks = smp.finish()
	out.cpu = cpuTime() - c0
	out.mem = readMem().sub(m0)
	if err != nil {
		return nil, fmt.Errorf("core.System.Run: %w", err)
	}
	out.summary = res.Summary
	out.latency = res.Collector.LatencyHistogram(-1)
	out.plans = countPlans(res.Plans)
	out.modelLoads = res.ModelLoads
	out.spans = spans.snapshot()

	s := res.Summary
	if s.Queries != s.Served+s.Late+s.Dropped {
		out.problems = append(out.problems, fmt.Sprintf("conservation: queries %d != served %d + late %d + dropped %d", s.Queries, s.Served, s.Late, s.Dropped))
	}
	if lo, hi := zooAccuracyRange(); s.Served > 0 && (s.EffectiveAccuracy < lo || s.EffectiveAccuracy > hi) {
		out.problems = append(out.problems, fmt.Sprintf("effective accuracy %.4f outside the zoo's [%.1f, %.1f]", s.EffectiveAccuracy, lo, hi))
	}
	if out.plans.timeLimited > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d solves hit the wall-clock budget; plans are not deterministic", out.plans.timeLimited))
	}
	if out.plans.errors > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d control decisions failed", out.plans.errors))
	}
	return out, nil
}

// runSim runs a sim workload. Every scenario is replayed once (the first
// pass, traced in trace mode); passes repeat untraced until the run has
// measured for at least the requested time, and every repeat must reproduce
// the first pass's outputs exactly. A traced run whose first pass fills the
// time replays the first scenario once more untraced: that checks the
// probes change no output and gives the runtime counters and the tracing
// overhead.
func runSim(workload string, seed uint64, seconds time.Duration, traced bool) (*report, error) {
	scs := simScenarios(workload, seed)
	rep := &report{workload: workload, seed: seed}
	start := time.Now()
	var passes [][]*simRun
	for p := 0; p == 0 || time.Since(start) < seconds; p++ {
		var pass []*simRun
		for _, sc := range scs {
			r, err := runScenario(sc, traced && p == 0)
			if err != nil {
				return nil, err
			}
			pass = append(pass, r)
		}
		passes = append(passes, pass)
	}
	first := passes[0]
	repeats := passes[1:]
	if traced && len(repeats) == 0 {
		r, err := runScenario(scs[0], false)
		if err != nil {
			return nil, err
		}
		repeats = [][]*simRun{{r}}
	}

	// Correctness: per-scenario checks, then exact repeatability.
	for i, r := range first {
		q := r.summary.Queries
		rep.attempted += q
		if len(r.problems) > 0 {
			rep.failed += q
			for _, p := range r.problems {
				rep.problems = append(rep.problems, fmt.Sprintf("scenario %d: %s", i, p))
			}
		}
	}
	for p, pass := range repeats {
		for i, r := range pass {
			if a, b := first[i].fingerprint(), r.fingerprint(); a != b {
				rep.failed += first[i].summary.Queries
				rep.problems = append(rep.problems, fmt.Sprintf("scenario %d: repeat %d differs: %+v vs %+v", i, p+1, a, b))
			}
		}
	}
	rep.determinism = fmt.Sprintf("%d repeat(s) of the first pass reproduced violation_ratio, effective_accuracy, milp.nodes and allocator.backoffs", len(repeats))
	if len(repeats) == 0 {
		rep.determinism = "not checked in this run: one pass filled --seconds (--trace 1 runs and go test replay the input)"
	}

	// End-to-end quality metrics come from the first pass; they are a
	// deterministic function of the seed.
	var sum simTotals
	for _, r := range first {
		sum.add(r)
	}
	rep.sent = sum.queries
	var plans planCounts
	for _, r := range first {
		plans.add(r.plans)
	}
	var runWalls []string
	for _, pass := range passes {
		for _, r := range pass {
			runWalls = append(runWalls, fmt.Sprintf("%.3f", r.wall.Seconds()))
		}
	}
	rep.outcomes = fmt.Sprintf("%d scenarios x %d simulated s: %d queries, %d served, %d late, %d dropped; %d periodic + %d burst plans, %d B&B nodes, %d back-offs; Run walls %v s",
		len(first), first[0].seconds, sum.queries, sum.served, sum.late, sum.dropped, plans.periodic, plans.burst, plans.nodes, plans.backoffs, runWalls)
	rep.e2e.violation = float64(sum.late+sum.dropped) / float64(sum.queries)
	rep.e2e.accuracy = sum.accWeighted / float64(sum.served)
	rep.e2e.goodput = float64(sum.served) / float64(sum.seconds)
	rep.e2e.p50 = histQuantile(sum.latency, 0.50)
	rep.e2e.p99 = histQuantile(sum.latency, 0.99)
	rep.latencySamples = int(sum.latency.Count())
	rep.latencyTail, _ = tailPercentile(rep.latencySamples)
	rep.e2e.tail = histQuantile(sum.latency, rep.latencyTail/100)

	// Timing metrics: medians over the untraced passes (reported only by
	// untraced runs, where every pass is untraced).
	var walls, cpus, rss, setups []float64
	for p, pass := range passes {
		if traced && p == 0 {
			continue
		}
		var t simTotals
		for _, r := range pass {
			t.add(r)
			rss = append(rss, r.peaks.residentMB())
		}
		walls = append(walls, t.wall.Seconds()/float64(len(pass)))
		cpus = append(cpus, float64(t.cpu.Microseconds())/float64(t.queries))
	}
	for _, pass := range passes {
		for _, r := range pass {
			setups = append(setups, durationsToSeconds(r.setups)...)
		}
	}
	rep.e2e.setup = median(setups)
	rep.setups = setups
	rep.e2e.wall = median(walls)
	rep.wallSamples = len(walls)
	rep.e2e.cpuPerQuery = median(cpus)
	rep.e2e.maxRSS = median(rss)

	if traced {
		rep.layers = simLayers(first, repeats)
	}
	return rep, nil
}

// simTotals sums scenario outcomes.
type simTotals struct {
	queries, served, late, dropped, seconds int
	accWeighted                             float64
	latency                                 *tsdb.Histogram
	wall, cpu                               time.Duration
}

func (t *simTotals) add(r *simRun) {
	if t.latency == nil {
		t.latency = &tsdb.Histogram{}
	}
	s := r.summary
	t.queries += s.Queries
	t.served += s.Served
	t.late += s.Late
	t.dropped += s.Dropped
	t.seconds += r.seconds
	t.accWeighted += s.EffectiveAccuracy * float64(s.Served)
	t.latency.Merge(r.latency)
	t.wall += r.wall
	t.cpu += r.cpu
}

// simLayers derives the per-layer metrics of a traced sim run: the first
// pass supplies spans and counters, the untraced repeats the runtime
// counters and the tracing overhead.
func simLayers(first []*simRun, repeats [][]*simRun) layerMetrics {
	l := newLayerMetrics()
	var spans []span
	for _, r := range first {
		l.coreQueries += r.summary.Queries
		l.modelLoads += r.modelLoads
		l.goroutinesPeak = max(l.goroutinesPeak, r.peaks.goroutines)
		l.plans.add(r.plans)
		spans = append(spans, renumber(r.spans, len(spans))...)
		for name, v := range counterValues(r.registry) {
			l.counters[name] += v
		}
	}
	var runWall int64
	for _, s := range spans {
		if s.kind == spanRun {
			runWall += s.dur()
		}
	}
	allocNS, decideNS := l.setSpanCounts(spans)
	l.solveShare = float64(allocNS) / float64(runWall)
	l.coreSelfNSPerQuery = float64(runWall-allocNS-decideNS) / float64(l.coreQueries)
	l.spans = spans
	l.spanWall = time.Duration(runWall)

	// Runtime counters come from the first untraced replay of the first
	// scenario (the same input as the traced one, a fixed amount of work);
	// the tracing overhead compares that scenario's traced wall with the
	// median of its untraced replays.
	ref := repeats[0][0]
	l.setRuntime(ref.mem, ref.summary.Queries)
	var untraced []float64
	for _, pass := range repeats {
		untraced = append(untraced, pass[0].wall.Seconds())
	}
	l.tracedOverheadPct = 100 * (first[0].wall.Seconds() - median(untraced)) / median(untraced)
	return l
}

// renumber shifts span ids (and parent references) by offset so spans of
// several recorders can be concatenated.
func renumber(spans []span, offset int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		if s.parent > 0 {
			s.parent += int32(offset)
		}
		out[i] = s
	}
	return out
}

// counterValues snapshots a registry's counters by name.
func counterValues(reg *telemetry.Registry) map[string]int64 {
	out := make(map[string]int64)
	if reg == nil {
		return out
	}
	for _, m := range reg.Snapshot() {
		out[m.Name] = m.Value
	}
	return out
}
