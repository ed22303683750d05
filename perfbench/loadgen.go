package main

import (
	"sync"
	"time"

	"proteus/internal/numeric"
)

// schedule is a seeded open-loop arrival schedule: request i is due at
// due[i] after the generator starts and asks for family[i].
type schedule struct {
	due    []time.Duration
	family []int
}

// newSchedule draws a Poisson arrival process of the given rate (QPS) for
// length, each request's family picked by shares. The same seed always
// gives the same schedule.
func newSchedule(seed uint64, rate float64, shares []float64, length time.Duration) schedule {
	rng := numeric.NewRNG(seed)
	var s schedule
	t := time.Duration(0)
	for {
		t += time.Duration(rng.Exp(rate) * float64(time.Second))
		if t >= length {
			return s
		}
		s.due = append(s.due, t)
		s.family = append(s.family, numeric.WeightedChoice(rng, shares))
	}
}

// timing is one request's due, send and completion times, as offsets from
// the generator's start.
type timing struct {
	due, sent, done time.Duration
}

// latency is timed from when the request was due, not when it was sent, so
// a generator or scheduler stall is charged to every request it delays.
func (t timing) latency() time.Duration { return t.done - t.due }

// lag is how late the generator sent the request.
func (t timing) lag() time.Duration { return t.sent - t.due }

// openLoop sends request i at its due time on a goroutine of its own,
// never waiting for earlier requests to complete, and returns once every
// request has completed. atMark runs once, on the generator goroutine, just
// before the first request due at or after mark is sent (the end of the
// warm-up); it may be nil.
func openLoop(due []time.Duration, send func(i int), mark time.Duration, atMark func()) []timing {
	out := make([]timing, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	marked := atMark == nil
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if !marked && d >= mark {
			atMark()
			marked = true
		}
		out[i].due = d
		out[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(i)
			out[i].done = time.Since(start)
		}(i)
	}
	wg.Wait()
	return out
}
