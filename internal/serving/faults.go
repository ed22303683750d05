package serving

import (
	"sort"
	"time"

	"proteus/internal/allocator"
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
	s.mu.Unlock()
	stranded := s.workers[d].fail()
	s.sink.Fail(now, d, s.cfg.Cluster.Device(d).Name)
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
	var ref *allocator.VariantRef
	if d < len(s.plan.Hosted) {
		ref = s.plan.Hosted[d]
	}
	s.mu.Unlock()
	s.sink.Recover(now)
	s.workers[d].recover(ref, s.cfg.ModelLoadDelay)
	s.rebuildTable()
	s.requestRealloc("recovery")
}

// redispatch returns a stranded query to the router, unless the sink's
// retry decision drops it.
func (s *Server) redispatch(q liveQuery, cause telemetry.Cause) {
	if s.sink.Requeue(s.now(), &q, cause) {
		s.dispatch(q)
	} else {
		s.dropped(q)
	}
}
