package serving

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// TestMaxRetriesZeroDropsStranded pins the explicit-zero re-route budget:
// a stranded query must be dropped on its first redispatch, never retried.
func TestMaxRetriesZeroDropsStranded(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRetries = -1 // the config's explicit-zero encoding
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan Response, 1)
	lq := liveQuery{
		ID:       1,
		Family:   0,
		Arrival:  s.now(),
		Deadline: s.now() + time.Minute,
		Reply:    done,
	}
	s.redispatch(lq, telemetry.CauseDeviceFailure)
	resp := <-done
	if resp.Outcome != OutcomeDropped {
		t.Fatalf("outcome %s, want dropped (budget 0)", resp.Outcome)
	}
	sum := s.Summary()
	if sum.Requeued != 1 || sum.Retried != 0 {
		t.Fatalf("requeued=%d retried=%d, want 1/0", sum.Requeued, sum.Retried)
	}
}

// TestMaxRetriesTwoAllowsSecondRetry pins the raised budget: a query on its
// second strand (retries=1) is still re-routed when MaxRetries is 2, and a
// query that already burned both retries is dropped.
func TestMaxRetriesTwoAllowsSecondRetry(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRetries = 2
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A short deadline keeps the worker's non-work-conserving batch wait
	// (which can stretch to the deadline) from stalling the test.
	mk := func(id uint64, retries int) (liveQuery, chan Response) {
		done := make(chan Response, 1)
		return liveQuery{
			ID:       id,
			Family:   0,
			Retries:  retries,
			Arrival:  s.now(),
			Deadline: s.now() + 2*time.Second,
			Reply:    done,
		}, done
	}
	first, firstDone := mk(1, 1)
	s.redispatch(first, telemetry.CauseDeviceFailure)
	if resp := <-firstDone; resp.Outcome == "" {
		t.Fatal("retried query got no response")
	}
	if sum := s.Summary(); sum.Retried != 1 {
		t.Fatalf("retried=%d, want 1 (budget 2, one retry used)", sum.Retried)
	}

	spent, spentDone := mk(2, 2)
	s.redispatch(spent, telemetry.CauseDeviceFailure)
	if resp := <-spentDone; resp.Outcome != OutcomeDropped {
		t.Fatalf("outcome %s, want dropped (budget exhausted)", resp.Outcome)
	}
	if sum := s.Summary(); sum.Retried != 1 {
		t.Fatalf("retried=%d after exhausted redispatch, want still 1", sum.Retried)
	}
}

// TestHealthzReportsOverloadState drives an emergency-degradation episode
// into the guard and checks /healthz exposes it: status flips to "degraded"
// with every device up (degraded by overload, not by a plan or failures),
// and the episode carries its family, level and reason.
func TestHealthzReportsOverloadState(t *testing.T) {
	cfg := testConfig(t)
	cfg.ControlPeriod = time.Minute // keep the test's synthetic guard plan
	cfg.TSDB = tsdb.NewRecorder(tsdb.Config{})
	cfg.Overload = &overload.Config{Enabled: true}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	web := httptest.NewServer(s.Handler())
	defer web.Close()

	var h Health
	get := func() {
		t.Helper()
		resp, err := http.Get(web.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		h = Health{}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
	}

	get()
	if !h.Overload.Enabled {
		t.Fatal("healthz must report the guard as enabled")
	}
	if len(h.Overload.Devices) != cfg.Cluster.Size() {
		t.Fatalf("%d device signals, want %d", len(h.Overload.Devices), cfg.Cluster.Size())
	}
	if h.Status != "ok" || len(h.Overload.Episodes) != 0 {
		t.Fatalf("pre-episode health %q with %d episodes, want ok/0", h.Status, len(h.Overload.Episodes))
	}

	// Force a two-tier plan for family 0 and start a burn: the guard must
	// open a degradation episode without any device being down.
	now := s.now()
	ms := time.Millisecond
	s.guard.SetPlan(now, []overload.DeviceProfile{
		{Family: 0, Accuracy: 80, MaxBatch: 4, Lat1: 10 * ms, LatMax: 20 * ms, SLO: 100 * ms},
		{Family: 0, Accuracy: 60, MaxBatch: 4, Lat1: 5 * ms, LatMax: 10 * ms, SLO: 100 * ms},
		{Family: -1},
		{Family: -1},
	})
	if changes := s.guard.OnBurn(now, 0, true); len(changes) == 0 {
		t.Fatal("burn start produced no degradation")
	}

	get()
	if h.Up != h.Total {
		t.Fatalf("%d/%d devices up — the episode must not come from failures", h.Up, h.Total)
	}
	if h.Status != "degraded" {
		t.Fatalf("status %q during overload episode, want degraded", h.Status)
	}
	if len(h.Overload.Episodes) != 1 {
		t.Fatalf("%d episodes, want 1", len(h.Overload.Episodes))
	}
	ep := h.Overload.Episodes[0]
	if ep.Family != 0 || ep.Level != 1 || ep.Reason != "slo_burn" {
		t.Fatalf("episode %+v, want family 0 level 1 reason slo_burn", ep)
	}
}

// TestNoGoroutineLeaks runs the full lifecycle — start, serve under the
// guard, drain, close — and requires the goroutine count to settle back to
// its pre-server baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := testConfig(t)
	cfg.TSDB = tsdb.NewRecorder(tsdb.Config{})
	cfg.Overload = &overload.Config{Enabled: true}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Infer("efficientnet")
	}
	if !s.Drain(5 * time.Second) {
		t.Fatalf("drain timed out with %d in flight", s.Inflight())
	}
	s.Close() // idempotent second close

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after settle\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
