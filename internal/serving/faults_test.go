package serving

import (
	"sync"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
)

// TestLiveFailureRedispatch kills a quarter of the live fleet while load is
// in flight: every Infer call must still return exactly once (served, late
// or dropped — no hangs), conservation must hold, and the failure counters
// must show the stranded queries being re-dispatched.
func TestLiveFailureRedispatch(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 600*time.Millisecond, 2500*time.Millisecond)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 300
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Spread arrivals across ~1.5s so queries straddle the failure.
			time.Sleep(time.Duration(i) * 5 * time.Millisecond)
			outcomes[i] = s.Infer("efficientnet").Outcome
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Infer calls hung across the failure")
	}

	var served, late, dropped int
	for i, o := range outcomes {
		switch o {
		case OutcomeServed:
			served++
		case OutcomeLate:
			late++
		case OutcomeDropped:
			dropped++
		default:
			t.Fatalf("query %d got no outcome: %q", i, o)
		}
	}
	sum := s.Summary()
	if sum.Queries != n {
		t.Fatalf("collector saw %d arrivals, want %d", sum.Queries, n)
	}
	if sum.Served+sum.Late+sum.Dropped != sum.Queries {
		t.Fatalf("conservation violated: %d+%d+%d != %d",
			sum.Served, sum.Late, sum.Dropped, sum.Queries)
	}
	if sum.Served != served || sum.Late != late || sum.Dropped != dropped {
		t.Fatalf("collector (%d/%d/%d) disagrees with responses (%d/%d/%d)",
			sum.Served, sum.Late, sum.Dropped, served, late, dropped)
	}
	if sum.Failures != 1 {
		t.Fatalf("failures=%d, want 1 (25%% of 4 devices)", sum.Failures)
	}
	if served == 0 {
		t.Fatal("the surviving devices must keep serving")
	}
}

// TestLiveRecoveryRestoresDevice lets the failed device come back and checks
// the recovery is recorded and serving continues afterwards.
func TestLiveRecoveryRestoresDevice(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 200*time.Millisecond, 700*time.Millisecond)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	deadline := time.After(10 * time.Second)
	for {
		if sum := s.Summary(); sum.Failures == 1 && sum.Recoveries == 1 {
			break
		}
		select {
		case <-deadline:
			sum := s.Summary()
			t.Fatalf("failure/recovery not observed: failures=%d recoveries=%d",
				sum.Failures, sum.Recoveries)
		case <-time.After(50 * time.Millisecond):
		}
	}
	if resp := s.Infer("efficientnet"); resp.Outcome == "" {
		t.Fatal("no response after recovery")
	}
}

// TestLiveFaultConfigValidation pins the config-path validation.
func TestLiveFaultConfigValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = &cluster.FailureSchedule{Events: []cluster.FailureEvent{
		{Device: 42, FailAt: time.Second},
	}}
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("out-of-range fault device must fail config validation")
	}
}

// TestCloseInterruptsModelLoad pins that a worker waiting out a model load
// does not hold up shutdown: on a clock that never reaches the load's end,
// Close still returns.
func TestCloseInterruptsModelLoad(t *testing.T) {
	fam := models.Zoo()[0]
	clk := &fakeClock{}
	s, err := newServer(Config{
		Cluster:        cluster.New([]cluster.TypeCount{{Type: cluster.V100, Count: 1}}),
		Families:       []models.Family{fam},
		Allocator:      fixedAlloc{fam.Variants[0]},
		ModelLoadDelay: time.Minute,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	clk.settle(t, 1)
	// A recovered device reloads its planned variant for the full delay.
	s.failDevice(0)
	s.recoverDevice(0)
	clk.settle(t, 1)
	if next := clk.next(); next != time.Minute {
		t.Fatalf("worker waits until %v, want the load's end %v", next, time.Minute)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a worker mid-load")
	}
}
