package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/report"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// goldenOutputs are the SHA-256 digests of everything a simulator run
// exports: the lifecycle trace (JSONL), the counter snapshot, the run dump
// and the metrics summaries. Refactors of the reporting path must leave
// every byte alone; a deliberate output change regenerates these and says
// why in its commit.
type goldenOutputs struct {
	trace, counters, dump, summary string
}

// goldenRun simulates a bursty two-family trace on 8 devices with every
// reporting sink enabled (tracer, counters, tsdb with a tight SLO monitor,
// overload guard) under the given batching policy and failure schedule,
// and digests the outputs. The solver runs serially under a node limit,
// never a wall-clock one, so the digests do not depend on the host.
func goldenRun(t *testing.T, policy batching.Factory, faults *cluster.FailureSchedule) goldenOutputs {
	t.Helper()
	fams := smallFamilies(t)
	cfg := Config{
		Cluster:  cluster.ScaledTestbed(8),
		Families: fams,
		Allocator: allocator.NewMILP(&allocator.MILPOptions{
			TimeLimit: time.Hour, MaxNodes: 2000, RelGap: 0.01, Parallelism: 1,
		}),
		Batching:      policy,
		ControlPeriod: 10 * time.Second,
		Faults:        faults,
		Tracer:        telemetry.NewTracer(1 << 18),
		Telemetry:     telemetry.NewRegistry(),
		TSDB: tsdb.NewRecorder(tsdb.Config{SLO: tsdb.SLOConfig{
			Target: 0.01, BurnRate: 2, ShortWindow: 2 * time.Second, LongWindow: 8 * time.Second,
		}}),
		Overload: &overload.Config{Enabled: true, HighWater: 48, LowWater: 24},
		Seed:     7,
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewBursty(trace.BurstyConfig{
		Seconds: 40, LowQPS: 150, HighQPS: 900, LowSeconds: 8, HighSeconds: 6,
		Families: models.FamilyNames(fams),
	})
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var out goldenOutputs
	var buf bytes.Buffer
	if err := cfg.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.trace = digest(buf.Bytes())
	buf.Reset()
	if err := cfg.Telemetry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out.counters = digest(buf.Bytes())
	buf.Reset()
	dump := report.Build(report.BuildInput{
		Label:        "golden",
		Seed:         cfg.Seed,
		Collector:    res.Collector,
		Recorder:     cfg.TSDB,
		Plans:        res.Plans,
		Events:       cfg.Tracer.Events(),
		TraceDropped: cfg.Tracer.Dropped(),
	})
	if err := dump.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.dump = digest(buf.Bytes())
	summary := fmt.Sprintf("%+v\n", res.Summary)
	for _, s := range res.PerFamily {
		summary += fmt.Sprintf("%+v\n", s)
	}
	out.summary = digest([]byte(summary))
	return out
}

// TestSimulatorOutputsPinned checks the byte-identity contract of the
// simulator's exports against pinned digests: a fault-free run under AIMD
// batching (late completions) and an AccScale run with two simultaneous
// failures (requeues, retries, a spent retry budget), two recoveries and a
// permanent failure.
func TestSimulatorOutputsPinned(t *testing.T) {
	cases := []struct {
		name   string
		policy batching.Factory
		faults *cluster.FailureSchedule
		want   goldenOutputs
	}{
		{"fault-free", func() batching.Policy { return batching.NewAIMD() }, nil, goldenOutputs{
			trace:    "9553c73138d8a75c7cd7d85361b5e791fe05fa2a232eb426cb14833b4eb4762d",
			counters: "879ef8e90a1fd82b6df3972afd4e378ae42afd0a66835265031ebb4cfa1d9372",
			dump:     "8f784b6665e2c6d96b6583996b59e67234387b7189dff30bc6ccc230eb1c1e5c",
			summary:  "2083104e075c698756cd40c73f3dac26bb4642374348c603d42738b490a8cfda",
		}},
		{"faults", nil, &cluster.FailureSchedule{Events: []cluster.FailureEvent{
			{Device: 6, FailAt: 9 * time.Second, RecoverAt: 21 * time.Second},
			{Device: 7, FailAt: 9 * time.Second, RecoverAt: 30 * time.Second},
			{Device: 5, FailAt: 15500 * time.Millisecond},
		}}, goldenOutputs{
			trace:    "3927a8d853a0509577bf0fced0bfd65264c2c23c5a3e73600b4b451ac07b0ac5",
			counters: "cded5565204bd33af56f14c065ebba15e15c0012e962dd44de019959f799c4b2",
			dump:     "0f912ab9b3cfeb24776333c9ed83514067b6e2ccc6d70120a8ca720d223dcec2",
			summary:  "12ed166e5b721241441a3bcb664888f79c79fe24c1cff870451824a16f6e8d5d",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenRun(t, tc.policy, tc.faults)
			for _, c := range []struct{ what, got, want string }{
				{"trace", got.trace, tc.want.trace},
				{"counters", got.counters, tc.want.counters},
				{"dump", got.dump, tc.want.dump},
				{"summary", got.summary, tc.want.summary},
			} {
				if c.got != c.want {
					t.Errorf("%s digest %s, want %s", c.what, c.got, c.want)
				}
			}
		})
	}
}
