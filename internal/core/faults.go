package core

import (
	"time"

	"proteus/internal/allocator"
	"proteus/internal/device"
	"proteus/internal/telemetry"
)

// failDevice takes device d down at the current simulation time: its queued
// and in-flight queries drain back to the router, the routing table stops
// admitting it, and a failure-triggered re-allocation is requested (honoring
// the control plane's cooldown).
func (s *System) failDevice(d int) {
	if d < 0 || d >= len(s.workers) || s.down[d] {
		return
	}
	now := s.engine.Now()
	s.down[d] = true
	s.controller.SetCluster(s.controller.Cluster().WithHealth(s.down))
	s.collector.DeviceFailed(now)
	s.tc.DevicesUp.Set(s.healthyCount())
	stranded := s.workers[d].fail()
	s.flight.Trigger(now, "device_failure", s.cfg.Cluster.Device(d).Name, -1, d)
	s.rebuildTable()
	for _, a := range stranded {
		s.requeue(now, a.Query, a.Cause)
	}
	s.faultRealloc("failure")
}

// recoverDevice brings device d back at the current simulation time. The
// device rejoins with no model loaded; it reloads whatever the current plan
// hosts on it (usually nothing, since post-failure plans avoid it) and a
// recovery-triggered re-allocation puts it back to work.
func (s *System) recoverDevice(d int) {
	if d < 0 || d >= len(s.workers) || !s.down[d] {
		return
	}
	now := s.engine.Now()
	s.down[d] = false
	s.controller.SetCluster(s.controller.Cluster().WithHealth(s.down))
	s.collector.DeviceRecovered(now)
	s.tc.DevicesUp.Set(s.healthyCount())
	w := s.workers[d]
	var ref *allocator.VariantRef
	if d < len(s.plan.Hosted) {
		ref = s.plan.Hosted[d]
	}
	w.recover(ref, now)
	s.scheduleLoaded(w, now)
	s.rebuildTable()
	s.faultRealloc("recovery")
}

// requeue returns a stranded query to the router: re-dispatched to a
// surviving replica, or dropped when device.Retry refuses it. cause records
// why the query was stranded (device failure, stale route, mid-flight loss)
// on the requeue and retry trace events, so attribution can name the
// re-route penalty.
func (s *System) requeue(now time.Duration, q query, cause telemetry.Cause) {
	s.collector.Requeued(now, q.Family)
	s.tc.Requeued.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvRequeued, q.ID, q.Family, -1, -1, s.traceCtx(q.Family, cause))
	}
	if drop := device.Retry(&q, now, s.cfg.MaxRetries); drop != telemetry.CauseNone {
		s.dropQuery(now, q, drop)
		return
	}
	s.collector.Retried(now, q.Family)
	s.tc.Retried.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvRetried, q.ID, q.Family, -1, -1, s.traceCtx(q.Family, cause))
	}
	s.route(now, q)
}

// healthyCount returns how many devices are currently up.
func (s *System) healthyCount() int64 {
	n := int64(0)
	for _, d := range s.down {
		if !d {
			n++
		}
	}
	return n
}

// faultRealloc requests a failure- or recovery-triggered re-allocation. If
// the cooldown since the last plan has not elapsed, the request is deferred
// to the cooldown boundary instead of being dropped; coalesced requests keep
// the most recent trigger.
func (s *System) faultRealloc(trigger string) {
	if !s.controller.Dynamic() {
		// Static baselines never re-plan; degradation is handled entirely by
		// the routing-table mask and the recovery reload.
		return
	}
	now := s.engine.Now()
	s.pendingFaultTrigger = trigger
	if s.pendingFaultRetry {
		return
	}
	if rem := s.controller.CooldownRemaining(now); rem > 0 {
		s.pendingFaultRetry = true
		s.engine.Schedule(now+rem, func() {
			s.pendingFaultRetry = false
			s.reallocate(s.pendingFaultTrigger)
		})
		return
	}
	s.reallocate(trigger)
}
