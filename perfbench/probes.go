package main

import (
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/controlplane"
)

// tracedAllocator records a span around every solve of the wrapped
// allocator. It changes no plan: Name, Dynamic and Features pass through.
type tracedAllocator struct {
	allocator.Allocator
	spans *spanRecorder
}

func (a tracedAllocator) Allocate(in *allocator.Input) (*allocator.Allocation, error) {
	id := a.spans.begin(spanAllocate, 0)
	defer a.spans.end(id)
	return a.Allocator.Allocate(in)
}

// tracedPolicy records a span around every batching decision.
type tracedPolicy struct {
	batching.Policy
	spans *spanRecorder
}

func (p tracedPolicy) Decide(ctx *batching.Context) batching.Decision {
	id := p.spans.begin(spanDecide, 0)
	defer p.spans.end(id)
	return p.Policy.Decide(ctx)
}

// accScale is the default batching factory of both engines (Proteus's
// adaptive batching), wrapped in a tracedPolicy when spans is non-nil.
func accScale(spans *spanRecorder) batching.Factory {
	if spans == nil {
		return func() batching.Policy { return batching.NewAccScale() }
	}
	return func() batching.Policy { return tracedPolicy{Policy: batching.NewAccScale(), spans: spans} }
}

// proteusAllocator builds the Proteus MILP allocator with the end-to-end
// experiment settings. The wall-clock budget is set far beyond any solve so
// that it never fires and every plan is a deterministic function of the
// input; plans that report TimeLimited fail the run's checks.
func proteusAllocator(spans *spanRecorder) (allocator.Allocator, error) {
	a, err := allocator.ByName("ilp", &allocator.MILPOptions{
		TimeLimit:  time.Hour,
		RelGap:     0.005,
		StallNodes: 600,
	})
	if err != nil || spans == nil {
		return a, err
	}
	return tracedAllocator{Allocator: a, spans: spans}, nil
}

// planCounts are the exact control-plane work counters read from the
// controller's plan records.
type planCounts struct {
	periodic, burst, fallback int
	nodes, backoffs           int
	timeLimited, errors       int
}

func countPlans(plans []controlplane.PlanRecord) planCounts {
	var c planCounts
	for _, p := range plans {
		switch p.Trigger {
		case "periodic":
			c.periodic++
		case "burst":
			c.burst++
		}
		switch p.Stage {
		case "primary":
		case "error":
			c.errors++
		default:
			c.fallback++
		}
		c.nodes += p.Stats.Nodes
		c.backoffs += p.Stats.Backoffs
		if p.Stats.TimeLimited {
			c.timeLimited++
		}
	}
	return c
}

func (c *planCounts) add(o planCounts) {
	c.periodic += o.periodic
	c.burst += o.burst
	c.fallback += o.fallback
	c.nodes += o.nodes
	c.backoffs += o.backoffs
	c.timeLimited += o.timeLimited
	c.errors += o.errors
}
