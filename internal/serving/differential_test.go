package serving

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/models"
	"proteus/internal/profiles"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
)

// fakeClock drives the live workers deterministically: time moves only when
// the test sets it, and settle waits until every worker is parked in a wait
// that nothing has ended yet. A wait ends when its time comes or a wake-up
// token is pending on its channel (the worker drops tokens under its lock,
// so a pending token always means unseen work).
type fakeClock struct {
	mu      sync.Mutex
	t       time.Duration
	waiters []*fakeWait
}

type fakeWait struct {
	until time.Duration
	wake  <-chan struct{}
	done  chan struct{}
	ended bool
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// margin is zero: a fake clock has no jitter to absorb, so live waits end on
// the same edges as the simulator's.
func (c *fakeClock) margin() time.Duration { return 0 }

func (c *fakeClock) sleep(until time.Duration, wake, stop <-chan struct{}) {
	w := &fakeWait{until: until, wake: wake, done: make(chan struct{})}
	c.mu.Lock()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-w.done:
	case <-stop:
	}
	c.mu.Lock()
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

func (c *fakeClock) set(t time.Duration) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// next is the earliest time a parked wait ends by itself (forever if none).
func (c *fakeClock) next() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := forever
	for _, w := range c.waiters {
		if !w.ended && w.until < next {
			next = w.until
		}
	}
	return next
}

// settle ends every wait that is over and returns once n workers are parked
// in waits that are not.
func (c *fakeClock) settle(t *testing.T, n int) {
	t.Helper()
	give := time.Now().Add(20 * time.Second)
	for {
		c.mu.Lock()
		parked := 0
		for _, w := range c.waiters {
			if !w.ended && (w.until <= c.t || len(w.wake) > 0) {
				w.ended = true
				close(w.done)
			}
			if !w.ended {
				parked++
			}
		}
		c.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(give) {
			t.Fatalf("live workers did not settle at %v", c.now())
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// Deadline marks for scriptPolicy: the deadline's nanoseconds modulo 1000.
const (
	markHold = 3 // hold the queue until this query's deadline
	markDrop = 7 // drop this query
)

// scriptPolicy executes as much as it can, except that it drops queries
// whose deadline carries markDrop and holds the queue behind a head query
// carrying markHold until that query's deadline — by then it is doomed.
type scriptPolicy struct{}

func (scriptPolicy) Name() string     { return "script" }
func (scriptPolicy) Observe(int, int) {}
func (scriptPolicy) Reset()           {}

func (scriptPolicy) Decide(ctx *batching.Context) batching.Decision {
	var drop []int
	var head *batching.Query
	for i := range ctx.Queue {
		q := &ctx.Queue[i]
		switch {
		case q.Deadline%1000 == markDrop:
			drop = append(drop, i)
		case head == nil:
			head = q
		}
	}
	n := len(ctx.Queue) - len(drop)
	switch {
	case n == 0:
		return batching.Decision{Action: batching.Idle, Drop: drop}
	case head.Deadline%1000 == markHold:
		return batching.Decision{Action: batching.Wait, WakeAt: head.Deadline, Drop: drop}
	}
	return batching.Decision{Action: batching.Execute, BatchSize: min(n, ctx.MaxBatch), Drop: drop}
}

// fixedAlloc hosts one variant on every device with equal routing shares and
// never re-plans.
type fixedAlloc struct{ v models.Variant }

func (fixedAlloc) Name() string                 { return "fixed" }
func (fixedAlloc) Dynamic() bool                { return false }
func (fixedAlloc) Features() allocator.Features { return allocator.Features{Method: "Static"} }

func (a fixedAlloc) Allocate(in *allocator.Input) (*allocator.Allocation, error) {
	plan := allocator.NewAllocation(in)
	for d := range plan.Hosted {
		plan.Hosted[d] = &allocator.VariantRef{Family: 0, Variant: a.v}
		plan.Routing[0][d] = 1 / float64(len(plan.Hosted))
	}
	return plan, nil
}

// fate is a query's path through the system as the lifecycle trace tells
// it: every requeue, retry and terminal event with its time, device and
// cause.
type fate []string

func fates(tr *telemetry.Tracer) map[uint64]fate {
	out := make(map[uint64]fate)
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case telemetry.EvRequeued, telemetry.EvRetried, telemetry.EvDropped, telemetry.EvDone, telemetry.EvLate:
			out[ev.Query] = append(out[ev.Query],
				fmt.Sprintf("%v@%v dev=%d cause=%q", ev.Kind, ev.At, ev.Device, ev.Cause))
		}
	}
	return out
}

// TestSimAndLiveAgree feeds one arrival sequence through the simulator and
// through the live goroutine workers on a fake clock, and requires identical
// per-query fates. The sequence covers a doomed query, a policy drop, a
// device failure in the middle of a batch, a recovery and its model load.
func TestSimAndLiveAgree(t *testing.T) {
	var fam models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" {
			fam = f
		}
	}
	v := fam.Variants[0]
	lat1 := profiles.Latency(cluster.Spec(cluster.CPU), v, 1)
	slo := profiles.FamilySLO(fam, 2)
	const loadDelay = 300 * time.Millisecond
	newCluster := func() *cluster.Cluster {
		return cluster.New([]cluster.TypeCount{{Type: cluster.CPU, Count: 2}})
	}
	policy := func() batching.Policy { return scriptPolicy{} }

	// at returns t nudged so that the query arriving then carries mark.
	at := func(t time.Duration, mark int64) time.Duration {
		return t - time.Duration((int64(t+slo)%1000+1000-mark)%1000)
	}
	var arrivals []trace.Arrival
	arrive := func(t time.Duration, mark int64) {
		arrivals = append(arrivals, trace.Arrival{Time: at(t, mark), Family: 0})
	}
	arrive(10*time.Millisecond, 0)
	arrive(3*lat1, markDrop)
	arrive(5*lat1, markHold)
	burst := 8 * lat1
	for k := 0; k < 6; k++ {
		arrive(burst+time.Duration(k)*time.Millisecond, 0)
	}
	failAt, recoverAt := burst+lat1/2, 11*lat1
	for k := 0; k < 4; k++ {
		arrive(recoverAt+loadDelay+time.Duration(2*k+1)*lat1/2, 0)
	}
	faults := []cluster.FailureEvent{{Device: 0, FailAt: failAt, RecoverAt: recoverAt}}

	// The simulator.
	simTrace := telemetry.NewTracer(1 << 12)
	sys, err := core.NewSystem(core.Config{
		Cluster:        newCluster(),
		Families:       []models.Family{fam},
		Allocator:      fixedAlloc{v},
		Batching:       policy,
		ModelLoadDelay: loadDelay,
		Faults:         &cluster.FailureSchedule{Events: faults},
		Tracer:         simTrace,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunArrivals(arrivals, recoverAt+2*time.Second, []float64{0}); err != nil {
		t.Fatal(err)
	}

	// The live server, stepped event by event on the fake clock. Script
	// events at a time go before the workers' wake-ups at that time, as the
	// simulator orders its pre-scheduled arrivals and faults first.
	liveTrace := telemetry.NewTracer(1 << 12)
	clk := &fakeClock{}
	s, err := newServer(Config{
		Cluster:        newCluster(),
		Families:       []models.Family{fam},
		Allocator:      fixedAlloc{v},
		Batching:       policy,
		ModelLoadDelay: loadDelay,
		ExecNoiseFrac:  -1,
		Tracer:         liveTrace,
		Seed:           11,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers = 2
	clk.settle(t, workers)
	runUntil := func(t0 time.Duration) {
		for n := clk.next(); n < t0; n = clk.next() {
			clk.set(n)
			clk.settle(t, workers)
		}
		clk.set(t0)
	}
	type step struct {
		at time.Duration
		do func()
	}
	var script []step
	replies := make(chan Response, len(arrivals))
	for _, a := range arrivals {
		script = append(script, step{a.Time, func() { s.arrive(0, replies) }})
	}
	script = append(script,
		step{failAt, func() { s.failDevice(0) }},
		step{recoverAt, func() { s.recoverDevice(0) }})
	for i := 1; i < len(script); i++ { // stable insertion sort by time
		for j := i; j > 0 && script[j].at < script[j-1].at; j-- {
			script[j], script[j-1] = script[j-1], script[j]
		}
	}
	for _, st := range script {
		runUntil(st.at)
		st.do()
		clk.settle(t, workers)
	}
	runUntil(forever)
	for range arrivals {
		<-replies
	}

	simFates, liveFates := fates(simTrace), fates(liveTrace)
	if len(simFates) != len(arrivals) {
		t.Fatalf("sim traced %d query fates, want %d", len(simFates), len(arrivals))
	}
	for id := uint64(0); id < uint64(len(arrivals)); id++ {
		sf, lf := fmt.Sprint(simFates[id]), fmt.Sprint(liveFates[id])
		if sf != lf {
			t.Errorf("query %d:\n  sim  %s\n  live %s", id, sf, lf)
		}
	}

	// The sequence must exercise every transition it claims to.
	seen := make(map[string]bool)
	for _, ev := range simTrace.Events() {
		switch {
		case ev.Kind == telemetry.EvDropped:
			seen["drop:"+ev.Cause.String()] = true
		case ev.Kind == telemetry.EvRequeued:
			seen["requeue:"+ev.Cause.String()] = true
		case ev.Kind == telemetry.EvDone && ev.Device == 0 && ev.At > recoverAt+loadDelay:
			seen["served after recovery"] = true
		}
	}
	for _, want := range []string{"drop:expired", "drop:policy_drop", "requeue:midflight", "served after recovery"} {
		if !seen[want] {
			t.Errorf("scenario never reached %s (saw %v)", want, seen)
		}
	}
}
