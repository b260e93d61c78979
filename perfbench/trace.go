package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program, recorded by the
// benchmark around the layer's public function. Spans of one design
// share Design; Parent is 0 for a root span.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Design string             `json:"design"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so the untraced run pays only a nil check.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Start(name, design string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Design: design, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// End closes span id, attaching counts measured at the same boundary.
func (t *Tracer) End(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// Add records an already-measured span, for intervals timed by the
// load generator before it knew the design's trace.
func (t *Tracer) Add(name, design string, parent int, start, end time.Time, counts map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Design: design, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Counts: counts})
	return len(t.spans)
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanIndex answers the per-layer questions the metrics need.
type spanIndex struct {
	spans    []Span
	children map[int][]Span
}

func indexSpans(spans []Span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int][]Span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children are merged, not double-counted).
func (ix *spanIndex) selfTime(s Span) time.Duration {
	kids := ix.children[s.ID]
	if len(kids) == 0 {
		return s.Dur()
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			covered += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	covered += curB - curA
	return s.Dur() - covered
}

// named returns the spans called name.
func (ix *spanIndex) named(name string) []Span {
	var out []Span
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfMs sums the self time of every span called name, in ms.
func (ix *spanIndex) selfMs(name string) float64 {
	var d time.Duration
	for _, s := range ix.named(name) {
		d += ix.selfTime(s)
	}
	return ms(d)
}

// count sums a count attached to spans called name.
func (ix *spanIndex) count(name, key string) float64 {
	var v float64
	for _, s := range ix.named(name) {
		v += s.Counts[key]
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
