package main

import (
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"loopfrog/internal/telemetry"
)

// span is one call into a layer, recorded by the benchmark around the call.
// The span's layer is its name up to the first dot ("cpu.run" -> "cpu").
type span struct {
	id, parent int // parent is -1 for a root span
	pass       int // shared by every span of one pass (or one served job)
	lane       int // goroutine lane, the Chrome trace tid
	name       string
	start, end time.Duration // since the tracer's origin
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes run the same code with tracing off.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent, pass, lane int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, pass: pass, lane: lane, name: name, start: now, end: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds an already-measured span (its start and end were taken by
// the caller, as for a client request timed on its own goroutine).
func (t *tracer) record(parent, pass, lane int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, pass: pass, lane: lane, name: name,
		start: start.Sub(t.origin), end: end.Sub(t.origin)})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (concurrent calls under one parent), so the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			a, b := max(k.start, s.start), min(k.end, s.end)
			if b <= a {
				continue
			}
			if a > curEnd {
				covered += curEnd - cur
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		covered += curEnd - cur
		out[i] = s.end - s.start - covered
	}
	return out
}

// selfByLayer sums self time per layer, in ms: where the traced run's time
// went, layer by layer.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.layer()] += msOf(self[i])
	}
	return out
}

// writeChrome writes the spans as Chrome trace events (the format lfsim
// -trace emits), one thread track per lane. Spans on one lane nest, so
// they are emitted as matched begin/end pairs.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := telemetry.NewTrace(f)
	tr.MetaProcess(0, "perfbench")
	byLane := make(map[int][]span)
	for _, s := range spans {
		byLane[s.lane] = append(byLane[s.lane], s)
	}
	lanes := make([]int, 0, len(byLane))
	for l := range byLane {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	for _, lane := range lanes {
		ss := byLane[lane]
		sort.Slice(ss, func(a, b int) bool {
			if ss[a].start != ss[b].start {
				return ss[a].start < ss[b].start
			}
			return ss[a].end > ss[b].end
		})
		var open []span
		for _, s := range ss {
			for len(open) > 0 && open[len(open)-1].end <= s.start {
				tr.End(0, lane, open[len(open)-1].end.Microseconds())
				open = open[:len(open)-1]
			}
			tr.Begin(0, lane, s.start.Microseconds(), s.name, map[string]int64{
				"pass": int64(s.pass), "id": int64(s.id), "parent": int64(s.parent),
			})
			open = append(open, s)
		}
		for i := len(open) - 1; i >= 0; i-- {
			tr.End(0, lane, open[i].end.Microseconds())
		}
	}
	return tr.Close()
}
