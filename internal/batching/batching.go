// Package batching implements per-worker batch scheduling policies: the
// paper's proactive, non-work-conserving adaptive batching (§5) and the
// baselines it is evaluated against in §6.4 — Clipper's reactive AIMD
// batching, Nexus's work-conserving early-drop batching — plus a static
// batch size used by the "Proteus w/o AB" ablation (§6.5).
//
// A policy is consulted by its worker whenever the device becomes free or a
// query arrives while the device is idle. It sees the queued queries and the
// batch latency model and returns one of three decisions: execute a batch
// now, stay idle until a wake-up time (non-work-conserving waiting), or do
// nothing because the queue is empty. Policies may also instruct the worker
// to drop hopeless queries (Nexus).
package batching

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Query is the policy-visible state of one queued query.
type Query struct {
	Deadline time.Duration // absolute SLO expiry time
}

// Context is the worker state a policy decides on.
type Context struct {
	// Now is the current (virtual or wall-clock) time.
	Now time.Duration
	// Queue holds pending queries in arrival order.
	Queue []Query
	// MaxBatch is the SLO- and memory-constrained maximum batch size for
	// the hosted variant on this device (§4). Always >= 1 for a hosted,
	// SLO-feasible variant.
	MaxBatch int
	// MemBatch is the memory-only maximum batch size. Reactive policies
	// (AIMD) that do not reason about SLOs are still physically limited by
	// it.
	MemBatch int
	// ProcTime returns the batch processing latency for a batch size.
	ProcTime func(batch int) time.Duration
	// ArrivalRate is the worker's smoothed query arrival rate in QPS.
	// Rate-planned policies (Nexus) size their batch from it.
	ArrivalRate float64
}

// Action is the kind of decision a policy makes.
type Action int

// Policy decisions.
const (
	// Idle means nothing to do (empty queue after drops).
	Idle Action = iota
	// Execute means run a batch of the first BatchSize queued queries now.
	Execute
	// Wait means stay idle and re-evaluate at WakeAt (or on arrival).
	Wait
)

func (a Action) String() string {
	switch a {
	case Idle:
		return "idle"
	case Execute:
		return "execute"
	case Wait:
		return "wait"
	}
	return "unknown"
}

// Decision is a policy's verdict.
type Decision struct {
	Action Action
	// BatchSize is the number of head-of-queue queries to execute.
	BatchSize int
	// WakeAt is the absolute re-evaluation time for Wait.
	WakeAt time.Duration
	// Drop lists queue indices (into Context.Queue, pre-execution) to drop
	// before acting. Indices are ascending.
	Drop []int
}

// Policy is a batching algorithm. Implementations are per-worker and not
// safe for concurrent use.
type Policy interface {
	// Name identifies the policy in logs and experiment output.
	Name() string
	// Decide inspects the queue and picks an action.
	Decide(ctx *Context) Decision
	// Observe reports a finished batch: how many queries completed and how
	// many of them violated their SLO. Reactive policies adapt on it.
	Observe(completed, violations int)
	// Reset clears adaptive state (used when the hosted model changes).
	Reset()
}

// Factory creates per-worker policy instances.
type Factory func() Policy

func clampBatch(b, queueLen, maxBatch int) int {
	if b > queueLen {
		b = queueLen
	}
	if b > maxBatch {
		b = maxBatch
	}
	if b < 1 {
		b = 1
	}
	return b
}

// ---------------------------------------------------------------------------
// Proteus adaptive batching (§5)

// AccScale is the paper's proactive, non-work-conserving adaptive batching
// algorithm ("accscale" in the artifact's config files). With q queued
// queries and the first expiring at T_exp(1), it waits for the (q+1)-st
// query until T_max_wait(q+1) = T_exp(1) − T_process(q+1); if that point
// passes, it executes the q queries it has, guaranteeing the head of the
// queue never times out because of batching.
type AccScale struct{}

// NewAccScale returns the Proteus adaptive batching policy.
func NewAccScale() *AccScale { return &AccScale{} }

// Name implements Policy.
func (*AccScale) Name() string { return "accscale" }

// Reset implements Policy. AccScale is stateless.
func (*AccScale) Reset() {}

// Observe implements Policy. AccScale is proactive, not reactive.
func (*AccScale) Observe(completed, violations int) {}

// Decide implements Policy.
func (*AccScale) Decide(ctx *Context) Decision {
	// Proactive guarantee, part one: queries that cannot meet their SLO
	// even executed alone right now are dropped rather than run late — a
	// doomed query only wastes a batch slot (its client has timed out).
	var drop []int
	alive := make([]Query, 0, len(ctx.Queue))
	horizon := ctx.Now + ctx.ProcTime(1)
	for i, qq := range ctx.Queue {
		if qq.Deadline < horizon {
			drop = append(drop, i)
			continue
		}
		alive = append(alive, qq)
	}
	q := len(alive)
	if q == 0 {
		return Decision{Action: Idle, Drop: drop}
	}
	texp1 := alive[0].Deadline
	// Proactive guarantee, part two (the §5 invariant): every batch must
	// finish before the head query expires. Under a backlog the batch size
	// is therefore clamped so that now + T_process(b) <= T_exp(1); the
	// overflow is served in subsequent batches against its own (later)
	// deadlines instead of dooming the head.
	bmax := q
	if bmax > ctx.MaxBatch {
		bmax = ctx.MaxBatch
	}
	for bmax > 1 && ctx.Now+ctx.ProcTime(bmax) > texp1 {
		bmax--
	}
	if bmax < q || bmax == ctx.MaxBatch {
		// Saturated (a full batch is available) or head-constrained
		// (waiting can only shrink the feasible batch): execute now.
		return Decision{Action: Execute, BatchSize: bmax, Drop: drop}
	}
	// q queries, all of which fit one batch, with room to grow:
	// T_max_wait(q+1) is the latest moment at which executing a batch of
	// q+1 still finishes before the head query expires.
	maxWaitNext := texp1 - ctx.ProcTime(q+1)
	if ctx.Now >= maxWaitNext {
		// Cannot afford to wait for one more query; run with what we have.
		return Decision{Action: Execute, BatchSize: q, Drop: drop}
	}
	// Safe to wait for the (q+1)-st arrival until maxWaitNext. If a query
	// arrives earlier, the worker re-invokes Decide, which re-evaluates
	// with q' = q+1 (the Case 2 recursion of §5).
	return Decision{Action: Wait, WakeAt: maxWaitNext, Drop: drop}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ---------------------------------------------------------------------------
// Nexus early-drop batching (§6.4 baseline)

// Nexus is the work-conserving early-drop policy of Nexus (SOSP '19) as
// characterized in the paper: the scheduler plans a *fixed* batch size per
// epoch from the measured arrival rate (the smallest batch whose throughput
// covers the rate); the executor then runs work-conservingly — whenever the
// device is free it immediately executes up to that planned batch, first
// dropping queries that would miss their deadline even in that batch. Both
// §6.4 weaknesses follow: the planned size lags when the per-second rate
// changes, and immediate dispatch squanders batching opportunity when
// inter-arrivals are bursty.
type Nexus struct{}

// NewNexus returns the Nexus baseline policy.
func NewNexus() *Nexus { return &Nexus{} }

// Name implements Policy.
func (*Nexus) Name() string { return "nexus" }

// Reset implements Policy. Nexus is stateless (its plan derives from the
// context's rate estimate).
func (*Nexus) Reset() {}

// Observe implements Policy.
func (*Nexus) Observe(completed, violations int) {}

// plannedBatch returns the smallest batch size whose steady-state
// throughput b/proc(b) covers the arrival rate, capped by MaxBatch.
func plannedBatch(ctx *Context) int {
	b := 1
	for b < ctx.MaxBatch {
		tput := float64(b) / ctx.ProcTime(b).Seconds()
		if tput >= ctx.ArrivalRate {
			break
		}
		b++
	}
	return b
}

// Decide implements Policy.
func (*Nexus) Decide(ctx *Context) Decision {
	planned := plannedBatch(ctx)
	// Early drop against the planned batch's latency, iterating because
	// drops shrink the executed batch.
	idx := make([]int, len(ctx.Queue))
	for i := range ctx.Queue {
		idx[i] = i
	}
	var drop []int
	for {
		if len(idx) == 0 {
			return Decision{Action: Idle, Drop: drop}
		}
		b := len(idx)
		if b > planned {
			b = planned
		}
		finish := ctx.Now + ctx.ProcTime(b)
		dropped := false
		keep := idx[:0]
		for pos, qi := range idx {
			if pos < b && ctx.Queue[qi].Deadline < finish {
				drop = append(drop, qi)
				dropped = true
				continue
			}
			keep = append(keep, qi)
		}
		idx = keep
		if !dropped {
			sortInts(drop)
			return Decision{Action: Execute, BatchSize: b, Drop: drop}
		}
	}
}

// ---------------------------------------------------------------------------
// Clipper AIMD batching (§6.4 baseline)

// AIMD is Clipper's reactive additive-increase/multiplicative-decrease
// batching: the target batch size grows by one after every violation-free
// batch and backs off multiplicatively when a batch causes SLO timeouts.
// It is work-conserving and deadline-oblivious — exactly the weaknesses the
// paper's §6.4 analysis attributes to it.
type AIMD struct {
	target   float64
	decrease float64
}

// NewAIMD returns the Clipper baseline with the standard 10% backoff.
func NewAIMD() *AIMD { return &AIMD{target: 1, decrease: 0.9} }

// Name implements Policy.
func (*AIMD) Name() string { return "aimd" }

// Reset implements Policy.
func (p *AIMD) Reset() { p.target = 1 }

// Target exposes the current batch-size target (for tests and logs).
func (p *AIMD) Target() float64 { return p.target }

// Observe implements Policy: additive increase on clean batches,
// multiplicative decrease on violations.
func (p *AIMD) Observe(completed, violations int) {
	if violations > 0 {
		p.target *= p.decrease
		if p.target < 1 {
			p.target = 1
		}
		return
	}
	if completed > 0 {
		p.target++
	}
}

// Decide implements Policy.
func (p *AIMD) Decide(ctx *Context) Decision {
	if len(ctx.Queue) == 0 {
		return Decision{Action: Idle}
	}
	b := int(p.target)
	// AIMD knows nothing about SLOs; it is only physically capped by
	// device memory.
	b = clampBatch(b, len(ctx.Queue), ctx.MemBatch)
	return Decision{Action: Execute, BatchSize: b}
}

// ---------------------------------------------------------------------------
// Static batching (ablation)

// Static always executes a fixed batch size (1 in the paper's "Proteus w/o
// AB" ablation). Work-conserving.
type Static struct{ size int }

// NewStatic returns a fixed batch-size policy.
func NewStatic(size int) *Static {
	if size < 1 {
		panic(fmt.Sprintf("batching: static size %d must be >= 1", size))
	}
	return &Static{size: size}
}

// Name implements Policy.
func (p *Static) Name() string { return fmt.Sprintf("static-%d", p.size) }

// Reset implements Policy.
func (*Static) Reset() {}

// Observe implements Policy.
func (*Static) Observe(completed, violations int) {}

// Decide implements Policy.
func (p *Static) Decide(ctx *Context) Decision {
	if len(ctx.Queue) == 0 {
		return Decision{Action: Idle}
	}
	return Decision{Action: Execute, BatchSize: clampBatch(p.size, len(ctx.Queue), ctx.MemBatch)}
}

// ByName returns a factory for the artifact's batching-policy names:
// "accscale", "nexus", "aimd", "static-N" (N a positive integer).
func ByName(name string) (Factory, error) {
	switch name {
	case "accscale":
		return func() Policy { return NewAccScale() }, nil
	case "nexus":
		return func() Policy { return NewNexus() }, nil
	case "aimd":
		return func() Policy { return NewAIMD() }, nil
	}
	// Parse "static-N" strictly: Sscanf would accept trailing garbage
	// ("static-5xyz" → 5), silently truncating typo'd configs.
	if rest, ok := strings.CutPrefix(name, "static-"); ok {
		n, err := strconv.Atoi(rest)
		if err == nil && n >= 1 && rest == strconv.Itoa(n) {
			return func() Policy { return NewStatic(n) }, nil
		}
		return nil, fmt.Errorf("batching: malformed static policy %q: want static-N with N a positive integer", name)
	}
	return nil, fmt.Errorf("batching: unknown policy %q", name)
}
