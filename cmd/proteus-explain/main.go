// Command proteus-explain attributes SLO violations from a lifecycle trace.
//
// It reads a JSONL trace (written by proteus-sim -trace or the telemetry
// tracer), runs the deterministic attribution engine, and prints the worst
// violated queries' latency waterfalls plus per-family and per-window blame
// tables:
//
//	proteus-explain -trace trace.jsonl -k 10
//
// Passing the matching run dump joins the controller's plan audit (naming
// the trigger behind stale_plan blames) and the tracer's ring-wrap eviction
// count:
//
//	proteus-explain -trace trace.jsonl -dump run.json
//
// -json emits the full attribution report as JSON instead; the output is
// byte-identical across same-seed runs (the CI attribution smoke diffs it).
// -query drills into one query id (ids count from 0). Exit codes: 0 ok, 1 runtime error,
// 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"proteus/internal/attrib"
	"proteus/internal/report"
	"proteus/internal/telemetry"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "lifecycle trace JSONL (required)")
		dumpPath  = flag.String("dump", "", "run dump JSON: joins plan history and trace-drop counts")
		topK      = flag.Int("k", 10, "number of worst violated queries to print")
		asJSON    = flag.Bool("json", false, "emit the full attribution report as JSON")
		queryID   = flag.Uint64("query", 0, "drill into one query id")
		window    = flag.Duration("window", 0, "summary window width (default 10s)")
	)
	flag.Parse()
	// Query 0 is a real query, so drilling in depends on -query being
	// passed, not on its value.
	var query *uint64
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "query" {
			query = queryID
		}
	})
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "proteus-explain: -trace trace.jsonl is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *tracePath, *dumpPath, *topK, *asJSON, query, *window); err != nil {
		fmt.Fprintf(os.Stderr, "proteus-explain: %v\n", err)
		os.Exit(1)
	}
}

// run explains the trace at tracePath; a non-nil query drills into that
// query alone.
func run(w io.Writer, tracePath, dumpPath string, topK int, asJSON bool, query *uint64, window time.Duration) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	events, err := telemetry.ReadJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	in := attrib.Input{Events: events, Window: window}
	if dumpPath != "" {
		d, err := report.ReadDumpFile(dumpPath)
		if err != nil {
			return err
		}
		in.Plans = d.Plans
		for _, fam := range d.Families {
			in.FamilyNames = append(in.FamilyNames, fam.Name)
		}
		if d.Attribution != nil {
			in.TraceDropped = d.Attribution.TraceDropped
		}
	}
	rep := attrib.Analyze(in)

	if query != nil {
		exp := findQuery(rep, *query)
		if exp == nil {
			return fmt.Errorf("query %d not in trace (or unfinished)", *query)
		}
		if asJSON {
			return writeJSON(w, exp)
		}
		writeWaterfall(w, exp, in.FamilyNames)
		return nil
	}
	if asJSON {
		return writeJSON(w, rep)
	}
	writeText(w, rep, in.FamilyNames, topK)
	return nil
}

func findQuery(rep *attrib.Report, id uint64) *attrib.Explanation {
	for i := range rep.Queries {
		if rep.Queries[i].Query == id {
			return &rep.Queries[i]
		}
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeText prints the human report: run totals, blame tables, and the
// top-K violated waterfalls. All ordering comes from the report itself, so
// the bytes are stable across same-seed runs.
func writeText(w io.Writer, rep *attrib.Report, names []string, topK int) {
	fmt.Fprintf(w, "attributed %d queries: %d violated, %d unfinished\n",
		len(rep.Queries), len(rep.Violated), rep.Unfinished)
	if rep.Incomplete {
		fmt.Fprintf(w, "WARNING: explanation incomplete: trace truncated (%d events evicted)\n",
			rep.TraceDropped)
	}
	if len(rep.Families) > 0 {
		fmt.Fprintf(w, "\nper-family blame:\n")
		for _, f := range rep.Families {
			if f.Queries == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-16s %6d queries %6d violated (%d late, %d dropped)\n",
				famName(names, f.Family), f.Queries, f.Violated, f.Late, f.Dropped)
			for _, b := range f.Blames {
				fmt.Fprintf(w, "    %-20s %d\n", b.Blame, b.Count)
			}
		}
	}
	if len(rep.Windows) > 0 {
		fmt.Fprintf(w, "\nper-window violations:\n")
		for _, win := range rep.Windows {
			if win.Queries == 0 {
				continue
			}
			top := ""
			if len(win.Blames) > 0 {
				top = fmt.Sprintf("  top %s (%d)", win.Blames[0].Blame, win.Blames[0].Count)
			}
			fmt.Fprintf(w, "  [%8s] %6d queries %6d violated%s\n",
				win.Start, win.Queries, win.Violated, top)
		}
	}
	if topK > len(rep.Violated) {
		topK = len(rep.Violated)
	}
	if topK > 0 {
		fmt.Fprintf(w, "\nworst %d violated queries:\n", topK)
		for i := 0; i < topK; i++ {
			fmt.Fprintln(w)
			writeWaterfall(w, &rep.Queries[rep.Violated[i]], names)
		}
	}
}

// writeWaterfall prints one query's attributed latency decomposition.
func writeWaterfall(w io.Writer, exp *attrib.Explanation, names []string) {
	fmt.Fprintf(w, "query %d (%s) %s e2e=%s", exp.Query, famName(names, exp.Family),
		exp.Outcome, exp.E2E)
	if exp.Retries > 0 {
		fmt.Fprintf(w, " retries=%d", exp.Retries)
	}
	if exp.Cause != "" {
		fmt.Fprintf(w, " cause=%s", exp.Cause)
	}
	if exp.Incomplete {
		fmt.Fprintf(w, " [incomplete]")
	}
	fmt.Fprintln(w)
	total := exp.E2E.Nanoseconds()
	for c := attrib.Component(0); c < attrib.NumComponents; c++ {
		ns := exp.Components[c]
		if ns == 0 {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = float64(ns) / float64(total) * 100
		}
		fmt.Fprintf(w, "  %-24s %12s  %5.1f%%\n", c, time.Duration(ns), pct)
	}
	fmt.Fprintf(w, "  plan %d", exp.PlanAtEnqueue)
	if exp.PlanAtEnd != exp.PlanAtEnqueue {
		fmt.Fprintf(w, " -> %d", exp.PlanAtEnd)
	}
	if exp.Episode != 0 {
		fmt.Fprintf(w, "  episode %d", exp.Episode)
	}
	if exp.Device >= 0 {
		fmt.Fprintf(w, "  device %d", exp.Device)
	}
	fmt.Fprintln(w)
	if exp.Blame != attrib.BlameNone {
		fmt.Fprintf(w, "  blame: %s — %s\n", exp.Blame, exp.Detail)
	}
}

func famName(names []string, f int32) string {
	if f >= 0 && int(f) < len(names) {
		return names[f]
	}
	return fmt.Sprintf("family%d", f)
}
