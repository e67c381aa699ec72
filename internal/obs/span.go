package obs

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed phase of a request. Spans form a tree per trace (via
// StartSpan) plus cross-trace links (via LinkTo). A Span is safe for
// concurrent use, and every method is a no-op on a nil receiver so
// instrumented code needs no enabled/disabled branches.
type Span struct {
	trace TraceID
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero until End
	attrs    []Attr
	links    []Link
	children []*Span
}

// Attr is one span attribute. Values should be JSON-encodable; they appear
// in /debug/obs snapshots, slow-request logs, and Perfetto exports.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Link points at a span of another trace — the leader execution a coalesced
// waiter piggybacked on.
type Link struct {
	Trace TraceID `json:"-"`
	// TraceHex is the wire form of Trace (JSON carries the same 16-digit
	// form the access log uses, so the two are grep-compatible).
	TraceHex string `json:"trace"`
	Span     string `json:"span"`
}

func newSpan(trace TraceID, name string) *Span {
	return &Span{trace: trace, name: name, start: time.Now()}
}

// TraceID returns the span's trace ID (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// Name returns the span's name (empty on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// End marks the span finished. The first call wins; later calls (and calls
// on nil) are no-ops, so instrumentation may End defensively on every path.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// Duration returns end-start for a finished span, time-since-start for a
// live one, zero for nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Set records an attribute.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// LinkTo records a cross-trace link to other. A nil other (the linked
// execution was untraced — e.g. a batch CLI's figure batch) records a link with
// a zero trace ID, so "coalesced onto unobserved work" is still visible.
func (s *Span) LinkTo(other *Span) {
	if s == nil {
		return
	}
	l := Link{Trace: other.TraceID(), Span: other.Name()}
	l.TraceHex = l.Trace.String()
	s.mu.Lock()
	s.links = append(s.links, l)
	s.mu.Unlock()
}

// addChild attaches a started child span.
func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// SpanData is the plain-data snapshot of a span tree: what /debug/obs
// serves, what slow-request logs inline, and what the Perfetto exporter
// renders. Offsets are relative to the root span's start so a tree reads as
// a timeline without clock context.
type SpanData struct {
	Name    string `json:"name"`
	TraceID string `json:"traceID,omitempty"` // roots only; children share it
	// StartUS/DurationUS are microseconds: offset from the root's start,
	// and the span's length (live spans report the duration so far).
	StartUS    int64      `json:"startUS"`
	DurationUS int64      `json:"durationUS"`
	InProgress bool       `json:"inProgress,omitempty"`
	Attrs      []Attr     `json:"attrs,omitempty"`
	Links      []Link     `json:"links,omitempty"`
	Children   []SpanData `json:"children,omitempty"`

	// Start is the span's absolute start time (snapshot consumers that
	// correlate traces against logs need the wall clock, not just offsets).
	Start time.Time `json:"start"`
}

// Snapshot renders the span and its subtree as plain data, with offsets
// relative to this span's start. Safe to call on a live tree; unfinished
// spans are marked InProgress. Returns the zero SpanData on nil.
func (s *Span) Snapshot() SpanData {
	if s == nil {
		return SpanData{}
	}
	d := s.snapshot(s.start)
	d.TraceID = s.trace.String()
	return d
}

func (s *Span) snapshot(origin time.Time) SpanData {
	s.mu.Lock()
	d := SpanData{
		Name:    s.name,
		Start:   s.start,
		StartUS: s.start.Sub(origin).Microseconds(),
	}
	if s.end.IsZero() {
		d.InProgress = true
		d.DurationUS = time.Since(s.start).Microseconds()
	} else {
		d.DurationUS = s.end.Sub(s.start).Microseconds()
	}
	d.Attrs = append([]Attr(nil), s.attrs...)
	d.Links = append([]Link(nil), s.links...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	for _, c := range children {
		d.Children = append(d.Children, c.snapshot(origin))
	}
	// Children start in order on the sequential request path, but coalesced
	// waiters and parallel sweep legs can interleave; sort so the snapshot
	// is a stable timeline.
	sort.SliceStable(d.Children, func(i, j int) bool {
		return d.Children[i].StartUS < d.Children[j].StartUS
	})
	return d
}

// Attr returns the value of the first attribute named key, or nil.
func (d SpanData) Attr(key string) any {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Find returns the first span named name in a depth-first walk of the tree,
// or nil.
func (d *SpanData) Find(name string) *SpanData {
	if d.Name == name {
		return d
	}
	for i := range d.Children {
		if f := d.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Walk visits every span of the tree depth-first.
func (d *SpanData) Walk(fn func(*SpanData)) {
	fn(d)
	for i := range d.Children {
		d.Children[i].Walk(fn)
	}
}
