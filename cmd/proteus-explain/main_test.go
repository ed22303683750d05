package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proteus/internal/telemetry"
)

// writeTrace records two served queries, ids 0 and 1, and writes their
// lifecycle trace as JSONL.
func writeTrace(t *testing.T) string {
	t.Helper()
	tr := telemetry.NewTracer(64)
	for id := uint64(0); id < 2; id++ {
		at := time.Duration(id) * 10 * time.Millisecond
		tr.Record(at, telemetry.EvArrival, id, 0, -1, -1)
		tr.Record(at, telemetry.EvRoute, id, 0, 0, -1)
		tr.Record(at, telemetry.EvEnqueue, id, 0, 0, -1)
		tr.Record(at+time.Millisecond, telemetry.EvBatchFormed, id, 0, 0, int(id))
		tr.Record(at+time.Millisecond, telemetry.EvExecStart, id, 0, 0, int(id))
		tr.Record(at+3*time.Millisecond, telemetry.EvDone, id, 0, 0, int(id))
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunQueryZero pins that -query 0 drills into query 0, the first query
// of every run, rather than meaning "no query".
func TestRunQueryZero(t *testing.T) {
	path := writeTrace(t)
	var out bytes.Buffer
	zero := uint64(0)
	if err := run(&out, path, "", 10, false, &zero, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "query 0 (family0) served e2e=3ms") {
		t.Fatalf("-query 0 printed:\n%s", out.String())
	}

	out.Reset()
	if err := run(&out, path, "", 10, false, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "attributed 2 queries") {
		t.Fatalf("without -query printed:\n%s", out.String())
	}

	missing := uint64(7)
	if err := run(&out, path, "", 10, false, &missing, 0); err == nil {
		t.Fatal("-query 7 found a query the trace does not hold")
	}
}
