package serving

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
)

// TestIntrospectionEndpoints covers the observability surface: /metrics,
// /healthz, /debug/allocations, and the pprof index.
func TestIntrospectionEndpoints(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tracer = telemetry.NewTracer(1 << 12)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Generate one query so the counters have something to show.
	s.Infer("efficientnet")

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{"uptime_seconds ", "queries_arrived_total 1", "devices_up 4", "model_loads_total "} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Up != 4 || h.Total != 4 || len(h.Devices) != 4 {
		t.Fatalf("/healthz report: %+v", h)
	}

	resp, body = get("/debug/allocations")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/allocations status %d", resp.StatusCode)
	}
	var recs []controlplane.PlanRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/debug/allocations body: %v\n%s", err, body)
	}
	if len(recs) == 0 {
		t.Fatal("audit log empty after initial allocation")
	}
	first := recs[0]
	if first.Solver == "" || first.Stage == "" || first.Trigger == "" {
		t.Fatalf("audit record missing provenance: %+v", first)
	}
	if first.Stats.SolverTime < 0 {
		t.Fatalf("negative solver time: %+v", first.Stats)
	}
	if first.Loads == 0 {
		t.Fatalf("initial plan loaded no models: %+v", first)
	}

	resp, _ = get("/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}

	// The lifecycle tracer saw the query from arrival to completion.
	events := cfg.Tracer.Events()
	if len(events) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	seen := map[telemetry.EventKind]bool{}
	for _, ev := range events {
		seen[ev.Kind] = true
	}
	for _, kind := range []telemetry.EventKind{telemetry.EvArrival, telemetry.EvRoute, telemetry.EvEnqueue} {
		if !seen[kind] {
			t.Fatalf("tracer missing %s events (saw %v)", kind, seen)
		}
	}
	if !seen[telemetry.EvDone] && !seen[telemetry.EvLate] && !seen[telemetry.EvDropped] {
		t.Fatalf("tracer missing a completion event (saw %v)", seen)
	}
}

// TestHealthzDegraded verifies the health mask tracks device failures.
func TestHealthzDegraded(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.failDevice(2)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d (degraded is still serving)", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Up != 3 || h.Devices[2].Up {
		t.Fatalf("health after failure: %+v", h)
	}
}

// TestDebugQueryEndpoint pins /debug/query's status codes: the first query
// of a run has id 0 and must be inspectable like any other, a malformed id
// is a bad request, an id the trace never saw is not found, and without a
// tracer the endpoint is not implemented.
func TestDebugQueryEndpoint(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tracer = telemetry.NewTracer(1 << 12)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Infer("efficientnet") // query 0, finished once Infer returns

	get := func(s *Server, query string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/query"+query, nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get(s, "?id=0")
	if code != http.StatusOK {
		t.Fatalf("id=0: status %d, want 200: %s", code, body)
	}
	var exp struct {
		Query   *uint64 `json:"query"`
		Outcome string  `json:"outcome"`
	}
	if err := json.Unmarshal([]byte(body), &exp); err != nil || exp.Query == nil || *exp.Query != 0 || exp.Outcome == "" {
		t.Fatalf("id=0: body %s does not explain query 0 (err %v)", body, err)
	}
	for _, q := range []string{"", "?id=", "?id=abc", "?id=-1"} {
		if code, _ := get(s, q); code != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", q, code)
		}
	}
	if code, _ := get(s, "?id=999"); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}

	untraced, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer untraced.Close()
	if code, _ := get(untraced, "?id=0"); code != http.StatusNotImplemented {
		t.Errorf("no tracer: status %d, want 501", code)
	}
}
