package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the operation (trial or
// submission) it served, the span that caused it (-1 for a root), and
// its start and end as offsets from the recorder's origin.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the same replay code runs untraced.
// Safe for concurrent use.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, op, parent int, fn func()) {
	id := r.begin(name, op, parent)
	fn()
	r.end(id)
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTotals is the summary of one span name: how many spans, their
// summed duration, and their summed self time.
type layerTotals struct {
	count int
	total time.Duration
	self  time.Duration
}

// summarize folds spans into per-name totals. A span's self time is its
// duration minus the part of its interval covered by its direct
// children; children that overlap one another (parallel work) are
// counted once, and a child's time outside its parent's interval is
// ignored.
func summarize(spans []span) map[string]*layerTotals {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range spans {
		t := out[s.name]
		if t == nil {
			t = &layerTotals{}
			out[s.name] = t
		}
		t.count++
		t.total += s.dur()
		t.self += s.dur() - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := spans[k].start, spans[k].end
		if lo < parent.start {
			lo = parent.start
		}
		if hi > parent.end {
			hi = parent.end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var sum time.Duration
	var cur iv
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			cur, open = x, true
		case x.lo <= cur.hi:
			if x.hi > cur.hi {
				cur.hi = x.hi
			}
		default:
			sum += cur.hi - cur.lo
			cur = x
		}
	}
	if open {
		sum += cur.hi - cur.lo
	}
	return sum
}

// meanOf returns a span name's mean duration in the given unit, 0 when
// no such span was recorded.
func meanOf(sum map[string]*layerTotals, name string, unit time.Duration) float64 {
	t := sum[name]
	if t == nil || t.count == 0 {
		return 0
	}
	return float64(t.total) / float64(t.count) / float64(unit)
}

// countOf returns how many spans of a name were recorded.
func countOf(sum map[string]*layerTotals, name string) int {
	if t := sum[name]; t != nil {
		return t.count
	}
	return 0
}

// accountedShare is the share of the busy time of the root spans that
// the named layers' self times account for.
func accountedShare(sum map[string]*layerTotals, root string, layers []string) float64 {
	rt := sum[root]
	if rt == nil || rt.total == 0 {
		return 0
	}
	var acc time.Duration
	for _, l := range layers {
		if t := sum[l]; t != nil {
			acc += t.self
		}
	}
	return float64(acc) / float64(rt.total)
}
