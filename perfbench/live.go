package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
	"proteus/internal/serving"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// live-nullexec drives the live server in process: a 12-device fleet of
// the paper's 2:1:1 CPU:1080Ti:V100 shape whose device specs are overridden
// so that a profiled batch executes in microseconds. SLOs stay those of the
// built-in CPU profile, so the server's own cost (locks, routing, worker
// wake-ups, JSON) is what the workload measures. The offered rate keeps
// about half of two cores busy.
const (
	liveRate   = 7000 // offered QPS, open loop
	liveWarmup = time.Second
	// nullOverheadMS and nullGFLOPsPerMS replace every device's fixed batch
	// overhead and compute rate: batch-1 execution takes a few microseconds.
	nullOverheadMS  = 0.002
	nullGFLOPsPerMS = 1e4
)

func nullExecCluster() *cluster.Cluster {
	var counts []cluster.TypeCount
	for _, tc := range []cluster.TypeCount{{Type: cluster.CPU, Count: 6}, {Type: cluster.GTX1080Ti, Count: 3}, {Type: cluster.V100, Count: 3}} {
		tc.Spec = cluster.Spec(tc.Type)
		tc.Spec.FixedOverheadMS = nullOverheadMS
		tc.Spec.EffGFLOPsPerMS = nullGFLOPsPerMS
		counts = append(counts, tc)
	}
	return cluster.New(counts)
}

// liveReply is one request's response as the client saw it.
type liveReply struct {
	code       int
	resp       serving.Response
	start, end time.Time // around ServeHTTP
	err        string
}

// liveZoo indexes the zoo for the response checks.
type liveZoo struct {
	names    []string
	sloMS    []float64
	accuracy map[string]float64 // variant ID -> accuracy
	family   map[string]string  // variant ID -> family
}

func newLiveZoo() liveZoo {
	z := liveZoo{accuracy: make(map[string]float64), family: make(map[string]string)}
	for _, f := range models.Zoo() {
		z.names = append(z.names, f.Name)
		z.sloMS = append(z.sloMS, float64(profiles.FamilySLO(f, 2))/float64(time.Millisecond))
		for _, v := range f.Variants {
			z.accuracy[v.ID()] = v.Accuracy
			z.family[v.ID()] = f.Name
		}
	}
	return z
}

// check validates one reply for family f and returns "" when it passes.
func (z liveZoo) check(f int, r liveReply) string {
	switch {
	case r.err != "":
		return r.err
	case r.code != http.StatusOK:
		return fmt.Sprintf("HTTP %d", r.code)
	case r.resp.Family != z.names[f]:
		return fmt.Sprintf("family %q echoed for %q", r.resp.Family, z.names[f])
	}
	switch r.resp.Outcome {
	case serving.OutcomeServed:
		acc, ok := z.accuracy[r.resp.Variant]
		switch {
		case !ok || z.family[r.resp.Variant] != z.names[f]:
			return fmt.Sprintf("variant %q is not a %s variant", r.resp.Variant, z.names[f])
		case r.resp.Accuracy != acc:
			return fmt.Sprintf("variant %s accuracy %v, zoo says %v", r.resp.Variant, r.resp.Accuracy, acc)
		case r.resp.LatencyMS > z.sloMS[f]:
			return fmt.Sprintf("served after %.3f ms, SLO %.3f ms", r.resp.LatencyMS, z.sloMS[f])
		}
	case serving.OutcomeLate:
		if r.resp.LatencyMS <= z.sloMS[f] {
			return fmt.Sprintf("late after %.3f ms, within SLO %.3f ms", r.resp.LatencyMS, z.sloMS[f])
		}
	case serving.OutcomeDropped:
	default:
		return fmt.Sprintf("unknown outcome %q", r.resp.Outcome)
	}
	return ""
}

// livePhase is one load phase against one server.
type livePhase struct {
	replies  []liveReply
	timings  []timing
	problems []string
	failed   int
	// Measured window (requests due after the warm-up).
	window     int
	windowWall time.Duration
	windowCPU  time.Duration
	mem        memDelta
	lifetime   time.Duration
	peaks      peaks // gauge: in-flight queries
}

// liveConfig assembles the server config; spans, reg and rec are nil in an
// untraced phase, leaving the server as deployed.
func liveConfig(seed uint64, spans *spanRecorder, reg *telemetry.Registry, rec *tsdb.Recorder) (serving.Config, error) {
	alloc, err := proteusAllocator(spans)
	if err != nil {
		return serving.Config{}, err
	}
	shares := zipfShares(len(models.Zoo()))
	initial := make([]float64, len(shares))
	for f := range initial {
		initial[f] = liveRate * shares[f]
	}
	return serving.Config{
		Cluster:       nullExecCluster(),
		Families:      models.Zoo(),
		Allocator:     alloc,
		Batching:      accScale(spans),
		InitialDemand: initial,
		Telemetry:     reg,
		TSDB:          rec,
		Seed:          seed,
	}, nil
}

// drive runs the schedule against srv and closes it.
func drive(srv *serving.Server, built time.Time, sch schedule, zoo liveZoo) *livePhase {
	h := srv.Handler()
	paths := make([]string, len(zoo.names))
	for f, name := range zoo.names {
		paths[f] = "/v1/query?family=" + url.QueryEscape(name)
	}
	ph := &livePhase{replies: make([]liveReply, len(sch.due))}
	runtime.GC()
	send := func(i int) {
		req := httptest.NewRequest(http.MethodPost, paths[sch.family[i]], nil)
		rw := httptest.NewRecorder()
		r := &ph.replies[i]
		r.start = time.Now()
		h.ServeHTTP(rw, req)
		r.end = time.Now()
		r.code = rw.Code
		if r.code == http.StatusOK {
			if err := json.Unmarshal(rw.Body.Bytes(), &r.resp); err != nil {
				r.err = "bad JSON: " + err.Error()
			}
		}
	}
	sampler := startPeakSampler(srv.Inflight)
	var m0 memDelta
	var c0 time.Duration
	var w0 time.Time
	ph.timings = openLoop(sch.due, send, liveWarmup, func() {
		m0, c0, w0 = readMem(), cpuTime(), time.Now()
	})
	ph.windowWall = time.Since(w0)
	ph.windowCPU = cpuTime() - c0
	ph.mem = readMem().sub(m0)
	srv.Close()
	ph.lifetime = time.Since(built)
	ph.peaks = sampler.finish()

	for i, r := range ph.replies {
		if sch.due[i] >= liveWarmup {
			ph.window++
		}
		if msg := zoo.check(sch.family[i], r); msg != "" {
			ph.failed++
			if len(ph.problems) < 10 {
				ph.problems = append(ph.problems, fmt.Sprintf("request %d: %s", i, msg))
			}
		}
	}
	return ph
}

// runLive runs live-nullexec: setupReps server builds (each including the
// initial MILP solve; all but the last closed at once), an untraced load
// phase for the end-to-end metrics and, in trace mode, a second traced
// phase on a fresh server for the per-layer metrics.
func runLive(seed uint64, seconds time.Duration, traced bool, zoo liveZoo) (*report, error) {
	sch := newSchedule(seed, liveRate, zipfShares(len(zoo.names)), liveWarmup+seconds)
	rep := &report{workload: "live-nullexec", seed: seed}

	var srv *serving.Server
	var built time.Time
	var setups []float64
	for i := 0; i < setupReps; i++ {
		cfg, err := liveConfig(seed, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		built = time.Now()
		s, err := serving.NewServer(cfg)
		setups = append(setups, time.Since(built).Seconds())
		if err != nil {
			return nil, fmt.Errorf("serving.NewServer: %w", err)
		}
		if i < setupReps-1 {
			s.Close()
		}
		srv = s
	}
	base := drive(srv, built, sch, zoo)
	rep.attempted = len(sch.due)
	rep.failed = base.failed
	rep.problems = base.problems
	rep.e2e.setup = median(setups)
	rep.setups = setups
	liveE2E(rep, base, sch, zoo, seconds)
	// Only the untraced phase's counters are needed from here on; dropping
	// its replies keeps them from enlarging the traced phase's live heap.
	base.replies, base.timings = nil, nil

	if traced {
		spans := newSpanRecorder()
		reg := telemetry.NewRegistry()
		rec := tsdb.NewRecorder(tsdb.Config{})
		cfg, err := liveConfig(seed, spans, reg, rec)
		if err != nil {
			return nil, err
		}
		built := time.Now()
		tsrv, err := serving.NewServer(cfg)
		if err != nil {
			return nil, fmt.Errorf("serving.NewServer: %w", err)
		}
		ph := drive(tsrv, built, sch, zoo)
		rep.attempted += len(sch.due)
		rep.failed += ph.failed
		rep.problems = append(rep.problems, ph.problems...)
		for i, r := range ph.replies {
			spans.add(spanServeHTTP, int64(i+1), r.start, r.end)
		}
		rep.layers = liveLayers(base, ph, sch, spans.snapshot(), reg, rec, tsrv)
	}
	return rep, nil
}

// liveE2E fills the end-to-end metrics from the untraced phase's window.
func liveE2E(rep *report, ph *livePhase, sch schedule, zoo liveZoo, seconds time.Duration) {
	var served, late, dropped, failed int
	var accSum float64
	var lat []float64
	for i, r := range ph.replies {
		if sch.due[i] < liveWarmup {
			continue
		}
		if zoo.check(sch.family[i], r) != "" {
			failed++
			continue
		}
		switch r.resp.Outcome {
		case serving.OutcomeServed:
			served++
			accSum += r.resp.Accuracy
		case serving.OutcomeLate:
			late++
		case serving.OutcomeDropped:
			dropped++
			continue
		}
		lat = append(lat, float64(ph.timings[i].latency())/float64(time.Millisecond))
	}
	n := ph.window
	rep.sent = n
	rep.outcomes = fmt.Sprintf("%d requests due after the %v warm-up at %d QPS: %d served, %d late, %d dropped, %d failed checks",
		n, liveWarmup, liveRate, served, late, dropped, failed)
	rep.e2e.violation = float64(late+dropped+failed) / float64(n)
	if served > 0 {
		rep.e2e.accuracy = accSum / float64(served)
	}
	rep.e2e.goodput = float64(served) / seconds.Seconds()
	rep.e2e.wall = ph.windowWall.Seconds()
	rep.wallSamples = 1
	rep.e2e.p50 = msDuration(percentile(lat, 50))
	rep.e2e.p99 = msDuration(percentile(lat, 99))
	rep.latencySamples = len(lat)
	rep.latencyTail, _ = tailPercentile(len(lat))
	rep.e2e.tail = msDuration(percentile(lat, rep.latencyTail))
	rep.e2e.cpuPerQuery = float64(ph.windowCPU.Microseconds()) / float64(n)
	rep.e2e.maxRSS = ph.peaks.residentMB()
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// liveLayers derives the per-layer metrics of a traced live run. The
// runtime counters come from the untraced phase, everything else from the
// traced one.
func liveLayers(base, ph *livePhase, sch schedule, spans []span, reg *telemetry.Registry, rec *tsdb.Recorder, srv *serving.Server) layerMetrics {
	l := newLayerMetrics()
	allocNS, _ := l.setSpanCounts(spans)
	l.solveShare = float64(allocNS) / float64(ph.lifetime)
	l.plans = countPlans(srv.History())
	l.counters = counterValues(reg)
	l.modelLoads = int(l.counters["model_loads_total"])

	var self, lags []float64
	for i, r := range ph.replies {
		t := ph.timings[i]
		lags = append(lags, float64(t.lag())/float64(time.Millisecond))
		if sch.due[i] < liveWarmup || r.code != http.StatusOK {
			continue
		}
		self = append(self, float64(r.end.Sub(r.start))/float64(time.Microsecond)-1000*r.resp.LatencyMS)
	}
	l.handlerSelfP50 = percentile(self, 50)
	l.handlerSelfP99 = percentile(self, 99)
	l.phases = phaseSummary(rec.PhaseStats())
	l.inflightPeak = ph.peaks.gauge
	l.goroutinesPeak = ph.peaks.goroutines
	l.loadgenSent = len(ph.timings)
	l.lagP99 = percentile(lags, 99)
	l.lagMax = maxOf(lags)
	l.setRuntime(base.mem, base.window)
	baseCPU := float64(base.windowCPU) / float64(base.window)
	l.tracedOverheadPct = 100 * (float64(ph.windowCPU)/float64(ph.window) - baseCPU) / baseCPU
	l.spans = spans
	return l
}

// phaseSummary reduces the recorder's per-family phase histograms to one
// p50 and p99 per phase: the query-count-weighted mean over families.
func phaseSummary(stats []tsdb.PhaseStat) map[string]float64 {
	type acc struct{ n, p50, p99 float64 }
	by := make(map[string]*acc)
	for _, s := range stats {
		if s.Scope != "family" {
			continue
		}
		a := by[s.Phase]
		if a == nil {
			a = &acc{}
			by[s.Phase] = a
		}
		n := float64(s.Count)
		a.n += n
		a.p50 += n * float64(s.P50US)
		a.p99 += n * float64(s.P99US)
	}
	out := make(map[string]float64)
	for phase, a := range by { //lint:allow determinism each key is written independently; order does not matter
		if a.n > 0 {
			out[phase+"_p50"] = a.p50 / a.n
			out[phase+"_p99"] = a.p99 / a.n
		}
	}
	return out
}
