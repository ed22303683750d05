package serving

import (
	"sort"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/device"
	"proteus/internal/telemetry"
)

// faultLoop replays the failure schedule on wall-clock timers, mirroring the
// simulation events the same schedule produces in internal/core.
func (s *Server) faultLoop() {
	defer s.wg.Done()
	type action struct {
		at     time.Duration
		device int
		fail   bool
	}
	var acts []action
	for _, ev := range s.cfg.Faults.Events {
		acts = append(acts, action{at: ev.FailAt, device: ev.Device, fail: true})
		if ev.RecoverAt > 0 {
			acts = append(acts, action{at: ev.RecoverAt, device: ev.Device})
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	for _, a := range acts {
		if delay := a.at - s.now(); delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-s.stop:
				timer.Stop()
				return
			}
		}
		if a.fail {
			s.failDevice(a.device)
		} else {
			s.recoverDevice(a.device)
		}
	}
}

// failDevice kills device d: its worker stops executing, queued and
// in-flight queries are re-dispatched to surviving replicas, and the control
// loop is asked for a failure re-allocation.
func (s *Server) failDevice(d int) {
	if d < 0 || d >= len(s.workers) {
		return
	}
	now := s.now()
	s.mu.Lock()
	if s.down[d] {
		s.mu.Unlock()
		return
	}
	s.down[d] = true
	s.collector.DeviceFailed(now)
	up := int64(0)
	for _, dn := range s.down {
		if !dn {
			up++
		}
	}
	s.mu.Unlock()
	s.tc.DevicesUp.Set(up)
	stranded := s.workers[d].fail()
	s.flight.Trigger(now, "device_failure", s.cfg.Cluster.Device(d).Name, -1, d)
	s.rebuildTable()
	for _, a := range stranded {
		s.redispatch(a.Query, a.Cause)
	}
	s.requestRealloc("failure")
}

// recoverDevice brings device d back with an empty memory: it reloads
// whatever the current plan hosts on it (usually nothing) and the control
// loop re-allocates to put it back to work.
func (s *Server) recoverDevice(d int) {
	if d < 0 || d >= len(s.workers) {
		return
	}
	now := s.now()
	s.mu.Lock()
	if !s.down[d] {
		s.mu.Unlock()
		return
	}
	s.down[d] = false
	s.collector.DeviceRecovered(now)
	up := int64(0)
	for _, dn := range s.down {
		if !dn {
			up++
		}
	}
	var ref *allocator.VariantRef
	if d < len(s.plan.Hosted) {
		ref = s.plan.Hosted[d]
	}
	s.mu.Unlock()
	s.tc.DevicesUp.Set(up)
	s.workers[d].recover(ref, s.cfg.ModelLoadDelay)
	s.rebuildTable()
	s.requestRealloc("recovery")
}

// redispatch returns a stranded query to the router: re-routed to a
// surviving replica, or dropped when device.Retry refuses it. cause records
// why the query was stranded (device failure, stale route, mid-flight loss)
// on the requeue and retry trace events, so attribution can name the
// penalty.
func (s *Server) redispatch(q liveQuery, cause telemetry.Cause) {
	now := s.now()
	s.tc.Requeued.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvRequeued, q.ID, q.Family, -1, -1,
			s.traceCtx(q.Family, cause))
	}
	s.mu.Lock()
	s.collector.Requeued(now, q.Family)
	drop := device.Retry(&q, now, s.cfg.MaxRetries)
	if drop == telemetry.CauseNone {
		s.collector.Retried(now, q.Family)
	}
	s.mu.Unlock()
	if drop != telemetry.CauseNone {
		s.recordDrop(q, drop)
		return
	}
	s.tc.Retried.Inc()
	if s.tracer != nil {
		s.tracer.RecordCtx(now, telemetry.EvRetried, q.ID, q.Family, -1, -1,
			s.traceCtx(q.Family, cause))
	}
	s.dispatch(q)
}
