package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanRun       spanKind = iota // core.System.Run, one per simulated scenario
	spanAllocate                  // allocator.Allocator.Allocate, one per solve
	spanDecide                    // batching.Policy.Decide, one per batching decision
	spanServeHTTP                 // serving handler, one per live request
)

var spanNames = [...]string{
	spanRun:       "core.Run",
	spanAllocate:  "controlplane.Allocate",
	spanDecide:    "batching.Decide",
	spanServeHTTP: "serving.ServeHTTP",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call at a layer boundary. IDs are 1-based positions in
// the recorder; parent 0 marks a root.
type span struct {
	kind   spanKind
	parent int32
	req    int64 // request id, 0 when the call serves no single request
	start  int64 // ns since the recorder's epoch
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// Span storage: fixed-size chunks installed on first use, so recording
// takes no lock. Probes run inside the program's own critical sections
// (the live worker calls Decide holding its mutex), where taking a
// benchmark lock would add a lock order the program does not have.
const (
	spanChunkBits = 16
	spanChunkLen  = 1 << spanChunkBits
	maxSpanChunks = 1 << 12
	maxSpans      = spanChunkLen * maxSpanChunks
)

// spanRecorder keeps every span of a traced run in memory; they are written
// out only when the run ends. Read them (snapshot) only after every
// recording goroutine has finished. A nil recorder records nothing.
type spanRecorder struct {
	epoch time.Time
	// scope is the span new probe spans are parented to: the enclosing
	// core.Run in the simulator, 0 (root) in live serving.
	scope  atomic.Int32
	n      atomic.Int64
	chunks [maxSpanChunks]atomic.Pointer[[spanChunkLen]span]
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now()}
}

func (r *spanRecorder) now() int64 {
	return int64(time.Since(r.epoch)) //lint:allow nondet span timestamps are reporting-only and never reach simulated state
}

// slot returns the storage of span id (1-based).
func (r *spanRecorder) slot(id int64) *span {
	i := id - 1
	c := &r.chunks[i>>spanChunkBits]
	p := c.Load()
	if p == nil {
		fresh := new([spanChunkLen]span)
		if c.CompareAndSwap(nil, fresh) {
			p = fresh
		} else {
			p = c.Load()
		}
	}
	return &p[i&(spanChunkLen-1)]
}

// put stores s and returns its id, or 0 once the recorder is full.
func (r *spanRecorder) put(s span) int32 {
	id := r.n.Add(1)
	if id > maxSpans {
		return 0
	}
	*r.slot(id) = s
	return int32(id)
}

// begin opens a span parented to the current scope and returns its id.
func (r *spanRecorder) begin(kind spanKind, req int64) int32 {
	if r == nil {
		return 0
	}
	return r.put(span{kind: kind, parent: r.scope.Load(), req: req, start: r.now()})
}

// setScope parents the spans begun from now on to span id.
func (r *spanRecorder) setScope(id int32) {
	if r != nil {
		r.scope.Store(id)
	}
}

// end closes span id.
func (r *spanRecorder) end(id int32) {
	if r == nil || id == 0 {
		return
	}
	r.slot(int64(id)).end = r.now()
}

// add records an already finished root span timed by the caller.
func (r *spanRecorder) add(kind spanKind, req int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.put(span{kind: kind, req: req, start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))})
}

// snapshot returns a copy of the spans recorded.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	n := min(r.n.Load(), maxSpans)
	out := make([]span, n)
	for i := range out {
		out[i] = *r.slot(int64(i + 1))
	}
	return out
}

// layerTime aggregates the spans of one kind.
type layerTime struct {
	kind  spanKind
	count int
	total time.Duration
	// self is total minus the parts of each span's interval that its
	// child spans cover.
	self time.Duration
}

// selfTimes computes per-kind total and self time. A span's self time is
// its duration minus the union of its children's intervals clipped to its
// own, so overlapping children are not subtracted twice. Rows come back
// ordered by self time, largest first.
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent > 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var rows [len(spanNames)]layerTime
	for i, s := range spans {
		covered := coveredNS(s, children[int32(i+1)])
		row := &rows[s.kind]
		row.kind = s.kind
		row.count++
		row.total += time.Duration(s.dur())
		row.self += time.Duration(s.dur() - covered)
	}
	var out []layerTime
	for _, r := range rows {
		if r.count > 0 {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// coveredNS returns how many nanoseconds of parent's interval the union of
// kids covers.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return covered + curHi - curLo
}

// printSelfTimes writes the per-layer self-time table. Shares are of wall,
// the time the spans nest in; pass 0 when spans overlap (concurrent live
// requests) and shares would mean nothing.
func printSelfTimes(w io.Writer, rows []layerTime, wall time.Duration) {
	fmt.Fprintf(w, "  %-24s %10s %12s %12s %12s %8s\n", "span", "count", "mean_us", "total_s", "self_s", "self_%")
	for _, r := range rows {
		share := "-"
		if wall > 0 {
			share = fmt.Sprintf("%.2f", 100*r.self.Seconds()/wall.Seconds())
		}
		mean := float64(r.total) / float64(r.count) / float64(time.Microsecond)
		fmt.Fprintf(w, "  %-24s %10d %12.3f %12.4f %12.4f %8s\n", r.kind, r.count, mean, r.total.Seconds(), r.self.Seconds(), share)
	}
}

// writeSpans writes spans as tab-separated lines (id, parent, request,
// name, start_ns, end_ns) to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i+1, s.parent, s.req, s.kind, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
