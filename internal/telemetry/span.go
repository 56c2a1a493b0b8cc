package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// traceArray frames a Chrome trace_event JSON array ("[", events
// separated by commas, "]") over a buffered writer. Tracer and the
// Chrome form of Pipetrace both write through it.
type traceArray struct {
	w      *bufio.Writer
	events int
}

func newTraceArray(w io.Writer) traceArray {
	a := traceArray{w: bufio.NewWriterSize(w, 1<<16)}
	a.w.WriteString("[\n") //nolint:errcheck // bufio defers errors to Flush
	return a
}

// next returns the writer for one more event, separated from the last.
func (a *traceArray) next() *bufio.Writer {
	if a.events > 0 {
		a.w.WriteString(",\n") //nolint:errcheck
	}
	a.events++
	return a.w
}

// end terminates the array and flushes.
func (a *traceArray) end() error {
	a.w.WriteString("\n]\n") //nolint:errcheck
	return a.w.Flush()
}

// Tracer emits host-side spans as a Chrome trace_event JSON array —
// the same format Pipetrace uses for the simulated pipeline, so a
// run's host spans and its pipetraces load into one Perfetto session.
//
// Spans form a tree: Begin starts a root, Span.Child a nested span on
// the same lane (tid), Span.ChildAsync a span on a fresh lane for work
// that runs concurrently with its parent (worker-pool simulations,
// pipeline interval jobs). Events are written at End as "X" (complete)
// events carrying the span id and parent id in args, which is what
// dmpobs -telemetry uses to validate nesting.
//
// All methods are safe on a nil *Tracer and a nil *Span, so call sites
// thread spans without guarding (matching the core.Probe convention).
type Tracer struct {
	mu     sync.Mutex
	arr    traceArray
	epoch  time.Time
	nextID uint64
	closed bool
}

// NewTracer starts a tracer writing to w. Call Close to finish the
// JSON array.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{arr: newTraceArray(w), epoch: time.Now()}
}

// Span is one in-flight unit of host work. End completes it; child
// spans may outlive their parent's End call (async lanes), dmpobs only
// checks containment for same-lane children.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	tid    uint64
	name   string
	cat    string
	start  time.Time
}

// Begin starts a root span on a fresh lane. cat groups spans in
// Perfetto (e.g. "exp", "sample").
func (t *Tracer) Begin(name, cat string) *Span {
	if t == nil {
		return nil
	}
	id := t.allocID()
	return &Span{t: t, id: id, tid: id, name: name, cat: cat, start: time.Now()}
}

func (t *Tracer) allocID() uint64 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// Child starts a nested span on the parent's lane: sequential sub-work,
// rendered stacked under the parent in Perfetto.
func (s *Span) Child(name, cat string) *Span {
	if s == nil {
		return nil
	}
	id := s.t.allocID()
	return &Span{t: s.t, id: id, parent: s.id, tid: s.tid, name: name, cat: cat, start: time.Now()}
}

// ChildAsync starts a nested span on a fresh lane: work that overlaps
// its siblings (a pooled simulation, a pipeline interval job).
func (s *Span) ChildAsync(name, cat string) *Span {
	if s == nil {
		return nil
	}
	id := s.t.allocID()
	return &Span{t: s.t, id: id, parent: s.id, tid: id, name: name, cat: cat, start: time.Now()}
}

// End completes the span and writes its event.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.emit(s.name, s.cat, s.id, s.parent, s.tid, s.start, now.Sub(s.start))
}

// ID returns the span's id (0 for a nil span), for correlating feed
// events with trace lanes.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Tracer returns the tracer the span belongs to (nil for a nil span).
// Hot paths capture it once and emit with SpanAt behind a nil check.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.t
}

// SpanAt records an already-measured span from scalar arguments: name
// and cat must be constant strings, start/dur come from the caller's
// own clock reads. This is the form //dmp:hotpath code uses — wrapped
// in an `if tr != nil` guard it costs nothing when tracing is off and
// allocates nothing when on (no *Span object; the emit path reuses the
// tracer's buffer). parent is the enclosing span's ID (0 for a root);
// the event gets its own fresh lane.
func (t *Tracer) SpanAt(name, cat string, start time.Time, dur time.Duration, parent uint64) {
	if t == nil {
		return
	}
	id := t.allocID()
	t.emit(name, cat, id, parent, id, start, dur)
}

func (t *Tracer) emit(name, cat string, id, parent, tid uint64, start time.Time, dur time.Duration) {
	ts := start.Sub(t.epoch).Microseconds()
	if ts < 0 {
		ts = 0
	}
	us := dur.Microseconds()
	if us < 1 {
		us = 1 // Perfetto drops zero-width complete events
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	fmt.Fprintf(t.arr.next(),
		`{"name":%q,"cat":%q,"ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d}}`,
		escape(name), cat, ts, us, tid, id, parent)
}

func escape(s string) string {
	// %q handles JSON-relevant escaping for the names we generate; strip
	// raw newlines defensively so one span can't corrupt the array.
	return strings.ReplaceAll(s, "\n", " ")
}

// Close terminates the JSON array and flushes. Idempotent.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.arr.end()
}
