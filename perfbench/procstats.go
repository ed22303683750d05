package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta is the change of the Go runtime's allocation and GC counters
// over a measured interval.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pause: time.Duration(ms.PauseTotalNs)}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{m.mallocs - o.mallocs, m.bytes - o.bytes, m.gcs - o.gcs, m.pause - o.pause}
}

// residentBytes returns the memory the Go runtime holds from the OS: all
// it has mapped minus the heap pages it has released back.
func residentBytes(samples []metrics.Sample) uint64 {
	metrics.Read(samples)
	total, released := samples[0].Value.Uint64(), samples[1].Value.Uint64()
	if released > total {
		return 0
	}
	return total - released
}

// peakSampler polls gauges every few milliseconds on its own goroutine and
// keeps their maxima: the goroutine count, the runtime's resident memory,
// and an optional caller gauge (the live server's in-flight queries).
type peakSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks peaks // written by the sampling goroutine, read after it exits
}

// peaks are a sampler's maxima.
type peaks struct {
	goroutines int
	resident   uint64 // bytes
	gauge      int64
}

func (p peaks) residentMB() float64 { return float64(p.resident) / (1 << 20) }

func startPeakSampler(gauge func() int64) *peakSampler {
	p := &peakSampler{stop: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			g := runtime.NumGoroutine()
			r := residentBytes(samples)
			var v int64
			if gauge != nil {
				v = gauge()
			}
			p.peaks.goroutines = max(p.peaks.goroutines, g)
			p.peaks.resident = max(p.peaks.resident, r)
			p.peaks.gauge = max(p.peaks.gauge, v)
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops the sampler, waits for its goroutine and returns the peaks.
func (p *peakSampler) finish() peaks {
	close(p.stop)
	p.wg.Wait()
	return p.peaks
}
