// Top-level benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§6), plus the §6.8 overhead microbenchmarks. Each
// end-to-end benchmark runs the corresponding experiment from
// internal/experiments at a bench-friendly scale and reports the headline
// quantities as custom metrics (violation ratios, accuracies, solve times),
// so `go test -bench=.` regenerates the paper's result shapes.
// EXPERIMENTS.md records paper-vs-measured values from the full-scale runs
// of cmd/proteus-bench.
package proteus_test

import (
	"testing"
	"time"

	"proteus"
	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/lp"
	"proteus/internal/milp"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/profiles"
	"proteus/internal/router"
	"proteus/internal/simulation"
	"proteus/internal/trace"
)

// benchOptions is the shared bench-scale experiment configuration.
func benchOptions() proteus.ExperimentOptions {
	return proteus.ExperimentOptions{
		ClusterSize:  20,
		TraceSeconds: 150,
		BaseQPS:      180,
		PeakQPS:      480,
		Seed:         20240427,
		SolverBudget: 400 * time.Millisecond,
	}
}

func findResult(b *testing.B, results []proteus.SystemResult, name string) proteus.SystemResult {
	b.Helper()
	for _, r := range results {
		if r.Name == name {
			return r
		}
	}
	b.Fatalf("system %s missing", name)
	return proteus.SystemResult{}
}

// BenchmarkFig1aAccuracyThroughput regenerates the Figure 1a trade-off
// points (EfficientNet variants on three device types at batch one).
func BenchmarkFig1aAccuracyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := proteus.Fig1a()
		if len(rows) != 24 {
			b.Fatalf("%d rows", len(rows))
		}
		for _, r := range rows {
			if r.Device == proteus.V100 && r.Variant == "b0" {
				b.ReportMetric(r.QPS, "v100-b0-qps")
			}
		}
	}
}

// BenchmarkFig1bParetoFrontier enumerates all 3125 placements of Figure 1b
// and extracts the Pareto frontier.
func BenchmarkFig1bParetoFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := proteus.Fig1b()
		frontier := proteus.ParetoFrontier(points)
		if len(points) != 3125 || len(frontier) == 0 {
			b.Fatalf("points %d frontier %d", len(points), len(frontier))
		}
		b.ReportMetric(float64(len(frontier)), "frontier-points")
	}
}

// BenchmarkTable2FeatureMatrix regenerates the feature-comparison matrix.
func BenchmarkTable2FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := proteus.Table2(benchOptions())
		if err != nil || len(rows) != 4 {
			b.Fatalf("table2: %v (%d rows)", err, len(rows))
		}
	}
}

// BenchmarkFig4EndToEnd runs the five-system end-to-end comparison on the
// Twitter-like trace and reports each system's violation ratio.
func BenchmarkFig4EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := proteus.Fig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		pro := findResult(b, results, "ilp")
		ha := findResult(b, results, "clipper-ha")
		b.ReportMetric(pro.Summary.ViolationRatio, "proteus-violations")
		b.ReportMetric(ha.Summary.ViolationRatio, "clipper-ha-violations")
		b.ReportMetric(pro.Summary.EffectiveAccuracy, "proteus-accuracy%")
		b.ReportMetric(pro.Summary.MaxAccuracyDrop, "proteus-maxdrop%")
		b.ReportMetric(pro.Summary.AvgThroughput, "proteus-qps")
	}
}

// BenchmarkFig5BurstyWorkload runs the macro-burst responsiveness
// comparison (§6.3).
func BenchmarkFig5BurstyWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := proteus.Fig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		pro := findResult(b, results, "ilp")
		inf := findResult(b, results, "infaas_v2")
		b.ReportMetric(pro.Summary.ViolationRatio, "proteus-violations")
		b.ReportMetric(inf.Summary.ViolationRatio, "infaas-violations")
		b.ReportMetric(float64(pro.Plans), "proteus-replans")
	}
}

// BenchmarkFig6AdaptiveBatching runs the batching isolation grid (§6.4) and
// reports the Gamma-trace violation ratio per policy.
func BenchmarkFig6AdaptiveBatching(b *testing.B) {
	o := benchOptions()
	o.TraceSeconds = 90
	for i := 0; i < b.N; i++ {
		points, err := proteus.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Process == trace.GammaProcess {
				b.ReportMetric(p.ViolationRatio, "gamma-"+p.Batching+"-violations")
			}
		}
	}
}

// BenchmarkFig7Ablation runs the §6.5 ablation study.
func BenchmarkFig7Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := proteus.Fig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		full := findResult(b, results, "ilp")
		noMS := findResult(b, results, "proteus-wo-ms")
		noAB := findResult(b, results, "ilp+static")
		b.ReportMetric(full.Summary.ViolationRatio, "full-violations")
		b.ReportMetric(noMS.Summary.ViolationRatio, "wo-ms-violations")
		b.ReportMetric(noAB.Summary.ViolationRatio, "wo-ab-violations")
	}
}

// BenchmarkFig8SLOSensitivity sweeps the latency SLO multiplier 1x-3.5x
// (§6.6). The sweep is 30 end-to-end runs; the bench scale keeps each short.
func BenchmarkFig8SLOSensitivity(b *testing.B) {
	o := benchOptions()
	o.TraceSeconds = 90
	for i := 0; i < b.N; i++ {
		points, err := proteus.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.System != "ilp" {
				continue
			}
			if p.SLOMultiplier == 1 {
				b.ReportMetric(p.ViolationRatio, "proteus-1x-violations")
			}
			if p.SLOMultiplier == 3.5 {
				b.ReportMetric(p.ViolationRatio, "proteus-3.5x-violations")
			}
		}
	}
}

// BenchmarkFig9FamilyBreakdown runs the §6.7 per-family breakdown.
func BenchmarkFig9FamilyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, families, err := proteus.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.PerFamily) != len(families) {
			b.Fatal("family breakdown incomplete")
		}
		b.ReportMetric(r.PerFamily[0].AvgThroughput, "resnet-qps")
		b.ReportMetric(r.PerFamily[len(families)-1].AvgThroughput, "gpt2-qps")
	}
}

// BenchmarkFig10MILPScalability runs the §6.8 per-device MILP solve-time
// sweep (small bench-scale points; cmd/proteus-bench runs the full sweep).
func BenchmarkFig10MILPScalability(b *testing.B) {
	o := proteus.Fig10Options{
		Devices:   []int{4, 8, 16},
		Variants:  []int{9, 17},
		Types:     []int{1, 3},
		TimeLimit: 2 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		points, err := proteus.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Dimension == "devices" && p.Value == 16 {
				b.ReportMetric(p.SolveTime.Seconds(), "solve-16-devices-sec")
			}
		}
	}
}

// BenchmarkSimVsLive runs the same constant workload through the
// discrete-event simulator and the wall-clock live cluster, reporting both
// effective accuracies — the paper's §6.2 simulator-fidelity check (they
// report 0.12% accuracy / 0.82% throughput deltas).
func BenchmarkSimVsLive(b *testing.B) {
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	names := models.FamilyNames(fams)
	const totalQPS = 120.0
	for i := 0; i < b.N; i++ {
		// Simulator leg.
		simAlloc, _ := proteus.NewAllocator("ilp", &proteus.MILPOptions{TimeLimit: 300 * time.Millisecond, RelGap: 0.01})
		sys, err := proteus.NewSystem(proteus.SystemConfig{
			Cluster:         cluster.ScaledTestbed(8),
			Families:        fams,
			Allocator:       simAlloc,
			MetricsInterval: time.Second, // align bins with the live collector
			Seed:            9,
		})
		if err != nil {
			b.Fatal(err)
		}
		tr := trace.NewFlat(names, []float64{totalQPS / 2, totalQPS / 2}, 10)
		simRes, err := sys.Run(tr)
		if err != nil {
			b.Fatal(err)
		}

		// Live leg: same rate for the same (wall-clock) duration.
		liveAlloc, _ := proteus.NewAllocator("ilp", &proteus.MILPOptions{TimeLimit: 300 * time.Millisecond, RelGap: 0.01})
		srv, err := proteus.NewLiveServer(proteus.LiveConfig{
			Cluster:       cluster.ScaledTestbed(8),
			Families:      fams,
			Allocator:     liveAlloc,
			ControlPeriod: 5 * time.Second,
			InitialDemand: []float64{totalQPS / 2, totalQPS / 2},
			Seed:          9,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := numeric.NewRNG(13)
		done := make(chan struct{})
		sem := make(chan struct{}, 256)
		start := time.Now()
		go func() {
			defer close(done)
			// Absolute-time scheduling: sleep overshoot must not thin the
			// offered rate, or the sim/live comparison compares different
			// workloads.
			next := 0.0
			for {
				next += rng.Exp(totalQPS)
				target := start.Add(time.Duration(next * float64(time.Second)))
				if next >= 10 {
					return
				}
				if d := time.Until(target); d > 0 {
					time.Sleep(d)
				}
				fam := names[rng.Intn(2)]
				sem <- struct{}{}
				go func() {
					defer func() { <-sem }()
					srv.Infer(fam)
				}()
			}
		}()
		<-done
		time.Sleep(300 * time.Millisecond) // drain in-flight batches
		liveSum := srv.Summary()
		srv.Close()

		b.ReportMetric(simRes.Summary.EffectiveAccuracy, "sim-accuracy%")
		b.ReportMetric(liveSum.EffectiveAccuracy, "live-accuracy%")
		b.ReportMetric(simRes.Summary.AvgThroughput, "sim-qps")
		b.ReportMetric(liveSum.AvgThroughput, "live-qps")
	}
}

// ---------------------------------------------------------------------------
// §6.8 overhead microbenchmarks

// BenchmarkRouterLookup measures the request router's per-query routing
// decision; the paper reports < 1 ms (§6.8) — this path is nanoseconds.
func BenchmarkRouterLookup(b *testing.B) {
	fams := models.Zoo()
	slos := make([]time.Duration, len(fams))
	demand := make([]float64, len(fams))
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
		demand[q] = 40
	}
	in := &allocator.Input{Cluster: cluster.ScaledTestbed(20), Families: fams, SLOs: slos, Demand: demand}
	plan, err := allocator.NewMILP(&allocator.MILPOptions{TimeLimit: time.Second, RelGap: 0.01}).Allocate(in)
	if err != nil {
		b.Fatal(err)
	}
	table := router.BuildTable(plan, len(fams))
	rng := numeric.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Pick(i%len(fams), rng)
	}
}

// BenchmarkMILPSolve measures one full Proteus resource-manager solve at
// the default experiment scale (the paper reports 4.2 s with Gurobi on 40
// devices; see DESIGN.md for the substitution discussion).
func BenchmarkMILPSolve(b *testing.B) {
	fams := models.Zoo()
	slos := make([]time.Duration, len(fams))
	demand := make([]float64, len(fams))
	z := numeric.NewZipf(len(fams), 1.001)
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
		demand[q] = 400 * z.P(q)
	}
	for i := 0; i < b.N; i++ {
		a := allocator.NewMILP(&allocator.MILPOptions{TimeLimit: 2 * time.Second, RelGap: 0.005})
		in := &allocator.Input{Cluster: cluster.ScaledTestbed(20), Families: fams, SLOs: slos, Demand: demand}
		alloc, err := a.Allocate(in)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(alloc.PredictedAccuracy, "predicted-accuracy%")
	}
}

// BenchmarkLPSolve measures one simplex solve of a mid-size LP.
func BenchmarkLPSolve(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem()
		const n = 60
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVariable("x", 0, float64(1+i%7))
			p.SetObjective(vars[i], float64((i*13)%17))
		}
		for r := 0; r < 40; r++ {
			var terms []lp.Term
			for j := 0; j < n; j += 2 {
				terms = append(terms, lp.Term{Var: vars[j], Coef: float64((r+j)%5) + 1})
			}
			p.AddConstraint(terms, lp.LE, float64(50+r*3))
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(build(), nil)
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve: %v %v", err, sol.Status)
		}
	}
}

// BenchmarkBranchAndBound measures a small knapsack MILP solve.
func BenchmarkBranchAndBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := milp.NewProblem()
		var terms []lp.Term
		for j := 0; j < 24; j++ {
			v := p.AddBinary("x")
			p.SetObjective(v, float64(10+(j*7)%13))
			terms = append(terms, lp.Term{Var: v, Coef: float64(3 + (j*11)%9)})
		}
		p.AddConstraint(terms, lp.LE, 60)
		sol := milp.Solve(p, nil)
		if sol.Status != milp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkAdaptiveBatchingDecide measures the per-decision cost of the §5
// algorithm (it sits on every worker's critical path).
func BenchmarkAdaptiveBatchingDecide(b *testing.B) {
	policy := batching.NewAccScale()
	queue := make([]batching.Query, 48)
	for i := range queue {
		queue[i] = batching.Query{Deadline: time.Duration(200+i) * time.Millisecond}
	}
	ctx := &batching.Context{
		Now:      0,
		Queue:    queue,
		MaxBatch: 32,
		MemBatch: 512,
		ProcTime: func(n int) time.Duration { return time.Duration(16+2*n) * time.Millisecond },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Decide(ctx)
	}
}

// BenchmarkSimulationEngine measures raw event throughput of the
// discrete-event core (events scheduled out of order, fired in order).
func BenchmarkSimulationEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := simulation.NewEngine()
		count := 0
		const n = 4096
		for j := 0; j < n; j++ {
			e.Schedule(time.Duration((j*7919)%n)*time.Microsecond, func() { count++ })
		}
		e.Run()
		if count != n {
			b.Fatal("events lost")
		}
	}
}

// BenchmarkDesignAblations measures the repository's own design choices
// (DESIGN.md): switch-cost churn control, admission control, and the §7
// fairness extension, each toggled individually.
func BenchmarkDesignAblations(b *testing.B) {
	o := benchOptions()
	o.TraceSeconds = 90
	for i := 0; i < b.N; i++ {
		rows, err := proteus.DesignAblations(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "default" {
				b.ReportMetric(float64(r.ModelLoads), "default-loads")
				b.ReportMetric(r.ViolationRatio, "default-violations")
			}
			if r.Name == "no-admission" {
				b.ReportMetric(r.ViolationRatio, "no-admission-violations")
			}
		}
	}
}

// BenchmarkOverloadRobustness runs the overload experiment (no-guard vs
// shed-only vs degrade+shed on the stale-plan adversarial trace) and reports
// the headline robustness quantities.
func BenchmarkOverloadRobustness(b *testing.B) {
	o := benchOptions()
	o.TraceSeconds = 90
	for i := 0; i < b.N; i++ {
		reports, err := proteus.OverloadRobustness(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			if rep.Trace != "adversarial" {
				continue
			}
			for _, run := range rep.Runs {
				switch run.Guard {
				case "no-guard":
					b.ReportMetric(run.Result.Summary.ViolationRatio, "no-guard-violations")
				case "degrade+shed":
					b.ReportMetric(run.Result.Summary.ViolationRatio, "degrade-shed-violations")
					b.ReportMetric(run.Goodput, "degrade-shed-goodput")
				}
			}
		}
	}
}

// BenchmarkFormulationComparison contrasts the exact aggregated MILP with
// the per-device formulation on an identical instance.
func BenchmarkFormulationComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := proteus.CompareFormulations([]int{12}, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AggregatedTime.Seconds(), "aggregated-sec")
		b.ReportMetric(rows[0].PerDeviceTime.Seconds(), "per-device-sec")
	}
}
