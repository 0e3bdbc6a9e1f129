package main

import (
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Times are offsets from the tracer's base on the monotonic
// clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// timed runs share the traced code path at the cost of one branch per
// call.
type tracer struct {
	base  time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under the innermost open span and returns the
// function that closes it. Spans must close in reverse order of opening.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = t.now()
		t.open = t.open[:len(t.open)-1]
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// selfTimes fills each span's Self: its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		kids := children[spans[i].ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach int64
		reach = spans[i].Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, spans[i].End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// layerSelf sums span self times by layer, the part of a span name before
// its first dot ("simmem.Core.Load" → "simmem").
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.Self
	}
	return out
}

func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
