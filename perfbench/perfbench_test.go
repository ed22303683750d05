package main

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/tsdb"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99.99, true}, // 10 samples beyond p99.99
		{99999, 99.9, true},   // 9 beyond p99.99, 99 beyond p99.9
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	var h tsdb.Histogram
	for v := int64(1000); v < 2000; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := float64(histQuantile(&h, q))
		want := 1000 + q*1000
		if math.Abs(got-want) > 0.04*want {
			t.Errorf("q=%v: got %v, want %v within one bucket", q, got, want)
		}
	}
	if got := histQuantile(&tsdb.Histogram{}, 0.5); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
	// Quantiles stay inside the observed range.
	var one tsdb.Histogram
	one.Record(12345)
	if got := histQuantile(&one, 0.99); got != 12345 {
		t.Errorf("single sample: got %v, want 12345", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spanRun, start: 0, end: 100},                   // id 1
		{kind: spanAllocate, parent: 1, start: 10, end: 30},   // id 2
		{kind: spanDecide, parent: 1, start: 20, end: 40},     // overlaps id 2
		{kind: spanDecide, parent: 1, start: 90, end: 120},    // runs past its parent
		{kind: spanRun, start: 200, end: 250},                 // id 5, no children
		{kind: spanDecide, parent: 5, start: 260, end: 270},   // entirely outside its parent
		{kind: spanServeHTTP, req: 7, start: 300, end: 310},   // root
		{kind: spanAllocate, parent: 2, start: 12, end: 18},   // child of a child
		{kind: spanDecide, parent: 1, start: 45, end: 45},     // empty
		{kind: spanDecide, parent: 1, start: 50, end: 60},     // id 10
		{kind: spanDecide, parent: 10, start: 50, end: 60},    // covers its parent fully
		{kind: spanServeHTTP, req: 8, start: 305, end: 320},   // overlaps a sibling root: no effect
		{kind: spanAllocate, parent: 5, start: 200, end: 250}, // covers run 5 fully
	}
	got := map[spanKind]layerTime{}
	for _, r := range selfTimes(spans) {
		got[r.kind] = r
	}
	// Run 1 covered by [10,40] ∪ [50,60] ∪ [90,100] = 50 → self 50;
	// run 5 fully covered → self 0.
	if r := got[spanRun]; r.count != 2 || r.total != 150 || r.self != 50 {
		t.Errorf("core.Run: %+v, want count 2 total 150 self 50", r)
	}
	// Allocate 2 (20) loses its child's 6; 8 and 13 have no children.
	if r := got[spanAllocate]; r.count != 3 || r.total != 76 || r.self != 70 {
		t.Errorf("Allocate: %+v, want count 3 total 76 self 70", r)
	}
	// Decide 10 is fully covered by its child.
	if r := got[spanDecide]; r.count != 6 || r.total != 80 || r.self != 70 {
		t.Errorf("Decide: %+v, want count 6 total 80 self 70", r)
	}
	if r := got[spanServeHTTP]; r.count != 2 || r.self != 25 {
		t.Errorf("ServeHTTP: %+v, want count 2 self 25", r)
	}
}

func TestSpanRecorderNesting(t *testing.T) {
	var nilRec *spanRecorder
	if id := nilRec.begin(spanRun, 0); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	nilRec.end(0)
	nilRec.setScope(3)

	r := newSpanRecorder()
	run := r.begin(spanRun, 0)
	r.setScope(run)
	child := r.begin(spanDecide, 42)
	r.end(child)
	r.end(run)
	got := r.snapshot()
	if len(got) != 2 || got[1].parent != run || got[1].req != 42 || got[0].parent != 0 {
		t.Fatalf("spans %+v: want a root run and its child with request 42", got)
	}
	if got[1].start < got[0].start || got[1].end > got[0].end {
		t.Errorf("child %+v not inside parent %+v", got[1], got[0])
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	shares := []float64{0.5, 0.3, 0.2}
	a := newSchedule(7, 2000, shares, 2*time.Second)
	b := newSchedule(7, 2000, shares, 2*time.Second)
	c := newSchedule(8, 2000, shares, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson at 2000 QPS for 2 s: about 4000 requests, in order, in range.
	if n := len(a.due); n < 3700 || n > 4300 {
		t.Errorf("got %d requests, want about 4000", n)
	}
	for i, d := range a.due {
		if d < 0 || d >= 2*time.Second || (i > 0 && d < a.due[i-1]) {
			t.Fatalf("due[%d] = %v out of order or range", i, d)
		}
		if f := a.family[i]; f < 0 || f >= len(shares) {
			t.Fatalf("family[%d] = %d", i, f)
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Requests are due 1 ms apart and each send blocks for 5 ms. An open
	// loop sends on schedule without waiting for replies, and latency
	// counts from the due time.
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	var marks atomic.Int32
	const service = 5 * time.Millisecond
	got := openLoop(due, func(int) { time.Sleep(service) }, 10*time.Millisecond, func() { marks.Add(1) })
	if marks.Load() != 1 {
		t.Errorf("atMark ran %d times, want 1", marks.Load())
	}
	var last time.Duration
	for i, tm := range got {
		if tm.due != due[i] {
			t.Fatalf("timing %d has due %v, want %v", i, tm.due, due[i])
		}
		if tm.lag() < 0 {
			t.Errorf("request %d sent %v before it was due", i, -tm.lag())
		}
		if tm.latency() != tm.done-tm.due || tm.latency() < tm.lag()+service {
			t.Errorf("request %d: latency %v does not cover lag %v + service %v", i, tm.latency(), tm.lag(), service)
		}
		last = max(last, tm.sent)
	}
	// Twenty 5 ms sends back to back would take 100 ms; open loop sends the
	// last one about 19 ms after start.
	if last > 80*time.Millisecond {
		t.Errorf("last request sent at %v: the generator waited for replies", last)
	}
}

func TestLatencyIncludesGeneratorLag(t *testing.T) {
	tm := timing{due: 10 * time.Millisecond, sent: 25 * time.Millisecond, done: 30 * time.Millisecond}
	if tm.lag() != 15*time.Millisecond || tm.latency() != 20*time.Millisecond {
		t.Errorf("lag %v latency %v, want 15ms and 20ms", tm.lag(), tm.latency())
	}
}

func TestSimScenarioRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("replays simulations")
	}
	// Two seeds, each replayed twice on a shortened Fig. 4 scenario: the
	// outputs later changes compare exactly must repeat bit for bit.
	for _, seed := range []uint64{1, 2} {
		sc := simScenarios("sim-diurnal", seed)[0]
		sc.trace = sc.trace.Slice(0, 45)
		a, err := runScenario(sc, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runScenario(sc, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.problems) > 0 || len(b.problems) > 0 {
			t.Fatalf("seed %d: checks failed: %v %v", seed, a.problems, b.problems)
		}
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("seed %d: untraced %+v, traced %+v", seed, a.fingerprint(), b.fingerprint())
		}
		if a.summary.Queries == 0 || b.plans.nodes == 0 {
			t.Errorf("seed %d: nothing simulated: %+v", seed, b.fingerprint())
		}
	}
}
