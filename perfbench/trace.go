package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent links a span to the call that caused it.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the untraced run pays one nil check per boundary.
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty span log.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Open is a started span.
type Open struct {
	t    *Tracer
	span Span
}

// Start opens a span. On a nil tracer it returns nil, and every method of
// a nil *Open is a no-op.
func (t *Tracer) Start(name string, parent int64, req string) *Open {
	if t == nil {
		return nil
	}
	return &Open{t: t, span: Span{
		ID:     t.ids.Add(1),
		Parent: parent,
		Name:   name,
		Req:    req,
		Start:  int64(time.Since(t.t0)),
	}}
}

// ID is the span's identifier, 0 for a nil span.
func (o *Open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.span.ID
}

// End closes the span, records it and returns its duration.
func (o *Open) End() time.Duration {
	if o == nil {
		return 0
	}
	o.span.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
	return o.span.Dur()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SpanSet indexes recorded spans for per-layer aggregation.
type SpanSet struct {
	spans    []Span
	children map[int64][]int // span ID -> indices of its children
}

// NewSpanSet indexes spans by parent.
func NewSpanSet(spans []Span) *SpanSet {
	s := &SpanSet{spans: spans, children: make(map[int64][]int)}
	for i, sp := range spans {
		if sp.Parent != 0 {
			s.children[sp.Parent] = append(s.children[sp.Parent], i)
		}
	}
	return s
}

// SelfTime is the span's duration minus the part of its interval that its
// children cover (overlapping children are counted once).
func (s *SpanSet) SelfTime(sp Span) time.Duration {
	kids := s.children[sp.ID]
	if len(kids) == 0 {
		return sp.Dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := s.spans[k]
		lo, hi := max(c.Start, sp.Start), min(c.End, sp.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	return sp.Dur() - time.Duration(unionLen(iv))
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, v := range iv {
		switch {
		case !started:
			curLo, curHi, started = v[0], v[1], true
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// Named returns the spans called name.
func (s *SpanSet) Named(name string) []Span {
	var out []Span
	for _, sp := range s.spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// SelfMicros returns the self times of the spans called name, in µs.
func (s *SpanSet) SelfMicros(name string) []float64 {
	var out []float64
	for _, sp := range s.Named(name) {
		out = append(out, float64(s.SelfTime(sp))/1e3)
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
