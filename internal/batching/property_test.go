package batching

import (
	"testing"
	"testing/quick"
	"time"

	"proteus/internal/numeric"
)

// randomCtx builds a random but well-formed batching context: FIFO queue
// with non-decreasing deadlines (same-SLO arrivals), affine latency model.
func randomCtx(seed uint64) *Context {
	rng := numeric.NewRNG(seed)
	fixed := time.Duration(1+rng.Intn(30)) * time.Millisecond
	perItem := time.Duration(1+rng.Intn(10)) * time.Millisecond
	proc := func(b int) time.Duration { return fixed + time.Duration(b)*perItem }
	now := time.Duration(rng.Intn(1000)) * time.Millisecond
	n := rng.Intn(30)
	queue := make([]Query, n)
	deadline := now - 20*time.Millisecond // some may already be hopeless
	for i := range queue {
		deadline += time.Duration(rng.Intn(40)) * time.Millisecond
		queue[i] = Query{Deadline: deadline}
	}
	return &Context{
		Now:      now,
		Queue:    queue,
		MaxBatch: 1 + rng.Intn(32),
		MemBatch: 64,
		ProcTime: proc,
	}
}

// TestPropertyAccScaleNeverExecutesLateHead checks the §5 invariant: any
// batch AccScale executes finishes no later than the surviving head's
// deadline, and every dropped query was truly hopeless.
func TestPropertyAccScaleNeverExecutesLateHead(t *testing.T) {
	p := NewAccScale()
	f := func(seed uint64) bool {
		ctx := randomCtx(seed)
		d := p.Decide(ctx)
		// Drops must be hopeless: deadline < now + proc(1).
		for _, i := range d.Drop {
			if i < 0 || i >= len(ctx.Queue) {
				return false
			}
			if ctx.Queue[i].Deadline >= ctx.Now+ctx.ProcTime(1) {
				return false
			}
		}
		switch d.Action {
		case Execute:
			if d.BatchSize < 1 || d.BatchSize > ctx.MaxBatch {
				return false
			}
			head, ok := survivingHead(ctx, d.Drop)
			if !ok {
				return false // executing with an empty surviving queue
			}
			return ctx.Now+ctx.ProcTime(d.BatchSize) <= head.Deadline
		case Wait:
			if d.WakeAt < ctx.Now {
				return false
			}
			head, ok := survivingHead(ctx, d.Drop)
			if !ok {
				return false
			}
			// Waking at WakeAt and executing the whole surviving queue must
			// still meet the head deadline.
			q := len(ctx.Queue) - len(d.Drop)
			return d.WakeAt+ctx.ProcTime(q) <= head.Deadline
		case Idle:
			return len(ctx.Queue)-len(d.Drop) == 0
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func survivingHead(ctx *Context, drop []int) (Query, bool) {
	di := 0
	for i, q := range ctx.Queue {
		if di < len(drop) && drop[di] == i {
			di++
			continue
		}
		return q, true
	}
	return Query{}, false
}

// TestPropertyDropsAreAscendingAndUnique checks the Decision contract every
// worker relies on, for all three deadline-aware policies.
func TestPropertyDropsAreAscendingAndUnique(t *testing.T) {
	policies := []Policy{NewAccScale(), NewNexus(), NewStatic(2)}
	f := func(seed uint64, pick uint8) bool {
		p := policies[int(pick)%len(policies)]
		ctx := randomCtx(seed)
		ctx.ArrivalRate = float64(seed % 300)
		d := p.Decide(ctx)
		for i := 1; i < len(d.Drop); i++ {
			if d.Drop[i] <= d.Drop[i-1] {
				return false
			}
		}
		for _, idx := range d.Drop {
			if idx < 0 || idx >= len(ctx.Queue) {
				return false
			}
		}
		// BatchSize never exceeds the surviving queue.
		if d.Action == Execute && d.BatchSize > len(ctx.Queue)-len(d.Drop) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNexusBatchCoversRate checks Nexus's plan: the executed batch
// size's steady-state throughput covers the arrival rate or hits a cap.
func TestPropertyNexusBatchCoversRate(t *testing.T) {
	p := NewNexus()
	f := func(seed uint64, rate16 uint16) bool {
		ctx := randomCtx(seed)
		if len(ctx.Queue) == 0 {
			return true
		}
		// Make all deadlines comfortable so drops don't obscure the plan.
		for i := range ctx.Queue {
			ctx.Queue[i].Deadline = ctx.Now + time.Hour
		}
		ctx.ArrivalRate = float64(rate16 % 1000)
		d := p.Decide(ctx)
		if d.Action != Execute {
			return false
		}
		b := d.BatchSize
		if b >= ctx.MaxBatch || b >= len(ctx.Queue) {
			return true // capped by the max batch or by availability
		}
		tput := float64(b) / ctx.ProcTime(b).Seconds()
		return tput >= ctx.ArrivalRate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
