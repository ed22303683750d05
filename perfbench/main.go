// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the Proteus system through its public seams, checks the
// outputs, and prints every metric by name and unit; the last line of
// standard output is a JSON object with the keys correct, attempted, failed
// and metrics. See README.md in this directory for the workloads, the
// metrics and which layer metric moves which end-to-end metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-diurnal --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an uninstrumented run;
// --trace 1 wraps the allocator and batching policy in span probes,
// attaches the telemetry sinks and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"proteus/internal/numeric"
)

var workloads = []string{"sim-diurnal", "sim-steady", "live-nullexec"}

// e2eMetrics are the user-visible outcomes of a run.
type e2eMetrics struct {
	setup, wall                  float64 // seconds
	goodput, violation, accuracy float64
	p50, p99, tail               time.Duration
	cpuPerQuery                  float64 // µs
	maxRSS                       float64 // MiB
}

// report is everything a run measured.
type report struct {
	workload string
	seed     uint64

	attempted, failed int
	// sent counts the queries the end-to-end metrics are taken over.
	sent        int
	problems    []string
	determinism string
	// outcomes describes how the measured queries ended.
	outcomes string

	e2e            e2eMetrics
	latencySamples int
	latencyTail    float64
	setups         []float64 // seconds, one per build
	wallSamples    int
	layers         layerMetrics
}

// layerMetrics are the per-layer numbers of a traced run; a layer a
// workload does not run reads 0.
type layerMetrics struct {
	solves                        int
	solveBusy, solveP50, solveMax time.Duration
	solveShare                    float64
	plans                         planCounts

	coreQueries        int
	coreSelfNSPerQuery float64
	modelLoads         int

	decides      int
	decideMeanNS float64
	counters     map[string]int64 // telemetry registry snapshot

	handlerSelfP50, handlerSelfP99 float64 // µs
	phases                         map[string]float64
	inflightPeak                   int64

	allocsPerQuery, bytesPerQuery float64
	gcCycles                      uint64
	gcPauseMS                     float64
	goroutinesPeak                int

	loadgenSent    int
	lagP99, lagMax float64 // ms

	tracedOverheadPct float64

	spans    []span
	spanWall time.Duration
}

func newLayerMetrics() layerMetrics {
	return layerMetrics{counters: make(map[string]int64), phases: make(map[string]float64)}
}

// setRuntime derives the Go runtime metrics from a measured interval that
// served queries queries.
func (l *layerMetrics) setRuntime(m memDelta, queries int) {
	if queries > 0 {
		l.allocsPerQuery = float64(m.mallocs) / float64(queries)
		l.bytesPerQuery = float64(m.bytes) / float64(queries)
	}
	l.gcCycles = m.gcs
	l.gcPauseMS = float64(m.pause) / float64(time.Millisecond)
}

// setSpanCounts fills the control-plane and batching figures read from
// spans and returns the time spent in Allocate and in Decide.
func (l *layerMetrics) setSpanCounts(spans []span) (allocNS, decideNS int64) {
	var solveNS []float64
	for _, s := range spans {
		switch s.kind {
		case spanAllocate:
			allocNS += s.dur()
			solveNS = append(solveNS, float64(s.dur()))
		case spanDecide:
			decideNS += s.dur()
			l.decides++
		}
	}
	l.solves = len(solveNS)
	l.solveBusy = time.Duration(allocNS)
	l.solveP50 = time.Duration(percentile(solveNS, 50))
	l.solveMax = time.Duration(maxOf(solveNS))
	if l.decides > 0 {
		l.decideMeanNS = float64(decideNS) / float64(l.decides)
	}
	return allocNS, decideNS
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metricValue
}

func (r *report) endToEnd() []namedMetric {
	correct := 0.0
	if r.attempted > 0 {
		correct = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	e := r.e2e
	return []namedMetric{
		{"setup_s", metricValue{e.setup, "s"}},
		{"wall_s", metricValue{e.wall, "s"}},
		{"goodput_qps", metricValue{e.goodput, "1/s"}},
		{"violation_ratio", metricValue{e.violation, "ratio"}},
		{"effective_accuracy", metricValue{e.accuracy, "%"}},
		{"p50_latency_ms", metricValue{ms(e.p50), "ms"}},
		{"p99_latency_ms", metricValue{ms(e.p99), "ms"}},
		{"cpu_us_per_query", metricValue{e.cpuPerQuery, "us"}},
		{"max_rss_mb", metricValue{e.maxRSS, "MB"}},
		{"correct_ratio", metricValue{correct, "ratio"}},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *report) perLayer() []namedMetric {
	l := r.layers
	c := l.counters
	meanBatch := 0.0
	if b := c["batches_executed_total"]; b > 0 {
		meanBatch = float64(c["batch_queries_total"]) / float64(b)
	}
	count := func(name string, v int64) namedMetric { return namedMetric{name, metricValue{float64(v), "count"}} }
	return []namedMetric{
		count("controlplane.solves", int64(l.solves)),
		{"controlplane.solve_busy_s", metricValue{l.solveBusy.Seconds(), "s"}},
		{"controlplane.solve_p50_ms", metricValue{ms(l.solveP50), "ms"}},
		{"controlplane.solve_max_ms", metricValue{ms(l.solveMax), "ms"}},
		{"controlplane.share_of_wall", metricValue{l.solveShare, "ratio"}},
		count("controlplane.plans_periodic", int64(l.plans.periodic)),
		count("controlplane.plans_burst", int64(l.plans.burst)),
		count("controlplane.plans_fallback", int64(l.plans.fallback)),
		count("milp.nodes", int64(l.plans.nodes)),
		count("allocator.backoffs", int64(l.plans.backoffs)),
		count("core.queries", int64(l.coreQueries)),
		{"core.self_ns_per_query", metricValue{l.coreSelfNSPerQuery, "ns"}},
		count("core.model_loads", int64(l.modelLoads)),
		count("batching.decides", int64(l.decides)),
		{"batching.decide_ns_mean", metricValue{l.decideMeanNS, "ns"}},
		count("batching.execute", c["batching_execute_total"]),
		count("batching.wait", c["batching_wait_total"]),
		count("batching.idle", c["batching_idle_total"]),
		count("batching.policy_drops", c["batching_drop_total"]),
		{"batching.mean_batch_size", metricValue{meanBatch, "queries"}},
		count("router.picks", c["router_picks_total"]),
		count("router.shed", c["router_shed_total"]),
		{"serving.handler_self_us_p50", metricValue{l.handlerSelfP50, "us"}},
		{"serving.handler_self_us_p99", metricValue{l.handlerSelfP99, "us"}},
		{"serving.phase_admission_p50", metricValue{l.phases["admission_p50"], "us"}},
		{"serving.phase_admission_p99", metricValue{l.phases["admission_p99"], "us"}},
		{"serving.phase_queue_p50", metricValue{l.phases["queue_p50"], "us"}},
		{"serving.phase_queue_p99", metricValue{l.phases["queue_p99"], "us"}},
		{"serving.phase_exec_p50", metricValue{l.phases["exec_p50"], "us"}},
		{"serving.phase_exec_p99", metricValue{l.phases["exec_p99"], "us"}},
		count("serving.inflight_peak", l.inflightPeak),
		{"runtime.allocs_per_query", metricValue{l.allocsPerQuery, "count"}},
		{"runtime.bytes_per_query", metricValue{l.bytesPerQuery, "B"}},
		count("runtime.gc_cycles", int64(l.gcCycles)),
		{"runtime.gc_pause_total_ms", metricValue{l.gcPauseMS, "ms"}},
		count("runtime.goroutines_peak", int64(l.goroutinesPeak)),
		count("loadgen.sent", int64(l.loadgenSent)),
		{"loadgen.lag_p99_ms", metricValue{l.lagP99, "ms"}},
		{"loadgen.lag_max_ms", metricValue{l.lagMax, "ms"}},
		{"telemetry.traced_overhead_pct", metricValue{l.tracedOverheadPct, "%"}},
	}
}

func printMetrics(ms []namedMetric) {
	for _, m := range ms {
		fmt.Printf("  %-32s %16.6f %s\n", m.name, m.Value, m.Unit)
	}
}

func main() {
	workload := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "minimum measuring time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an instrumented run, 0 end-to-end metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory the traced run's spans are written to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	// The benchmark uses at most two cores so that figures taken on hosts
	// of different sizes stay comparable.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	traced := *trace == 1
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	switch *workload {
	case "sim-diurnal", "sim-steady":
		rep, err = runSim(*workload, *seed, dur, traced)
	case "live-nullexec":
		rep, err = runLive(*seed, dur, traced, newLiveZoo())
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	correct := rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0
	fmt.Printf("workload %s seed %d trace %d\n", rep.workload, rep.seed, *trace)
	fmt.Printf("  sent %d, succeeded %d, failed %d (error_ratio %.6f)\n",
		rep.attempted, rep.attempted-rep.failed, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, p := range rep.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	fmt.Printf("  measured: %s\n", rep.outcomes)
	if rep.determinism != "" {
		fmt.Printf("  determinism: %s\n", rep.determinism)
	}
	var metrics []namedMetric
	if traced {
		metrics = rep.perLayer()
		fmt.Println("per-layer metrics:")
		printMetrics(metrics)
		fmt.Println("span self time:")
		printSelfTimes(os.Stdout, selfTimes(rep.layers.spans), rep.layers.spanWall)
		path := filepath.Join(*outDir, "spans", rep.workload+".tsv")
		if err := writeSpans(path, rep.layers.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("  %d spans written to %s\n", len(rep.layers.spans), path)
	} else {
		metrics = rep.endToEnd()
		fmt.Println("end-to-end metrics:")
		printMetrics(metrics)
		fmt.Printf("  latency over %d queries; p%g = %.3f ms is the highest percentile with at least ten samples beyond it\n",
			rep.latencySamples, rep.latencyTail, ms(rep.e2e.tail))
		fmt.Printf("  setup_s is the median of %d builds (%.6f to %.6f s), wall_s of %d samples, over %d queries sent\n",
			len(rep.setups), numeric.Min(rep.setups), numeric.Max(rep.setups), rep.wallSamples, rep.sent)
	}

	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, rep.attempted, rep.failed, make(map[string]metricValue)}
	for _, m := range metrics {
		out.Metrics[m.name] = m.metricValue
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}
