package device

import (
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
	"proteus/internal/telemetry"
)

// newV100 returns a device hosting ResNet-50 (no load delay) under AIMD,
// which executes whatever is queued at once.
func newV100(t *testing.T) (*Device, *allocator.VariantRef) {
	t.Helper()
	reg := models.MustRegistry(models.Zoo())
	v, ok := reg.Variant("resnet/50")
	if !ok {
		t.Fatal("resnet/50 not in the zoo")
	}
	dev := cluster.New([]cluster.TypeCount{{Type: cluster.V100, Count: 1}}).Device(0)
	d := New(Config{Device: dev, Policy: batching.NewAIMD(), SLOs: []time.Duration{time.Second}})
	ref := &allocator.VariantRef{Family: 0, Variant: v}
	d.SetHosted(ref, 0, 0)
	return d, ref
}

func kinds(acts []Action) []Kind {
	var out []Kind
	for _, a := range acts {
		out = append(out, a.Kind)
	}
	return out
}

func TestRunCompleteAndSample(t *testing.T) {
	d, ref := newV100(t)
	d.Enqueue(0, Query{ID: 1, Deadline: time.Second})
	acts := d.Evaluate(0, nil)
	if len(acts) != 1 || acts[0].Kind != Run || len(acts[0].Batch) != 1 {
		t.Fatalf("actions %v, want one Run of one query", kinds(acts))
	}
	lat := profiles.Latency(cluster.Spec(cluster.V100), ref.Variant, 1)
	if acts[0].At != lat {
		t.Fatalf("batch runs until %v, want %v", acts[0].At, lat)
	}
	// Mid-batch, the sample counts the in-flight query and the elapsed part
	// of its execution.
	s := d.Sample(lat / 2)
	if s.QueueDepth != 1 || s.BusyTime != lat/2 || s.LastBatch != 1 {
		t.Fatalf("mid-batch sample %+v", s)
	}
	if acts := d.Evaluate(lat/2, nil); len(acts) != 0 {
		t.Fatalf("busy device decided %v", kinds(acts))
	}
	batch, v := d.Complete(lat)
	if len(batch) != 1 || v.ID() != ref.Variant.ID() {
		t.Fatalf("completed %d queries on %q", len(batch), v.ID())
	}
	if s := d.Sample(2 * lat); s.QueueDepth != 0 || s.BusyTime != lat {
		t.Fatalf("idle sample %+v", s)
	}
}

func TestFailStrandsQueueAndInflight(t *testing.T) {
	d, _ := newV100(t)
	d.Enqueue(0, Query{ID: 1, Deadline: time.Second})
	d.Evaluate(0, nil) // query 1 runs
	d.Enqueue(time.Millisecond, Query{ID: 2, Deadline: time.Second})
	acts := d.Fail(2*time.Millisecond, nil)
	want := map[uint64]telemetry.Cause{2: telemetry.CauseDeviceFailure, 1: telemetry.CauseMidflight}
	if len(acts) != 2 {
		t.Fatalf("stranded %v, want 2", kinds(acts))
	}
	for _, a := range acts {
		if a.Kind != Strand || a.Cause != want[a.Query.ID] {
			t.Fatalf("query %d: %v/%v, want strand/%v", a.Query.ID, a.Kind, a.Cause, want[a.Query.ID])
		}
	}
	if batch, _ := d.Complete(time.Second); batch != nil {
		t.Fatal("a stranded batch completed")
	}
	if d.Enqueue(3*time.Millisecond, Query{ID: 3}) {
		t.Fatal("a down device accepted a query")
	}
}

func TestLoadThenLoaded(t *testing.T) {
	d, ref := newV100(t)
	d.SetHosted(ref, 0, time.Second)
	d.Enqueue(0, Query{ID: 1, Deadline: 2 * time.Second})
	acts := d.Evaluate(0, nil)
	if len(acts) != 1 || acts[0].Kind != Load || acts[0].At != time.Second {
		t.Fatalf("loading device: %v", kinds(acts))
	}
	if got := kinds(d.Evaluate(time.Second, nil)); len(got) != 2 || got[0] != Loaded || got[1] != Run {
		t.Fatalf("after the load: %v, want [Loaded Run]", got)
	}
}

func TestExpiredQueriesDropBeforeDeciding(t *testing.T) {
	d, _ := newV100(t)
	d.Enqueue(0, Query{ID: 1, Deadline: time.Millisecond}) // cannot finish even alone
	d.Enqueue(0, Query{ID: 2, Deadline: time.Second})
	acts := d.Evaluate(0, nil)
	if len(acts) != 2 || acts[0].Kind != Drop || acts[0].Cause != telemetry.CauseExpired || acts[0].Query.ID != 1 {
		t.Fatalf("actions %v, want query 1 dropped as expired first", kinds(acts))
	}
	if acts[1].Kind != Run || len(acts[1].Batch) != 1 || acts[1].Batch[0].ID != 2 {
		t.Fatalf("actions %v, want query 2 run", kinds(acts))
	}
}

func TestRetry(t *testing.T) {
	q := Query{Deadline: time.Second}
	if c := Retry(&q, 0, 1); c != telemetry.CauseNone || q.Retries != 1 {
		t.Fatalf("first strand: cause %v retries %d", c, q.Retries)
	}
	if c := Retry(&q, 0, 1); c != telemetry.CauseRetryBudget {
		t.Fatalf("spent budget: cause %v", c)
	}
	late := Query{Deadline: time.Second}
	if c := Retry(&late, time.Second, 1); c != telemetry.CauseExpired || late.Retries != 0 {
		t.Fatalf("past deadline: cause %v retries %d", c, late.Retries)
	}
}
