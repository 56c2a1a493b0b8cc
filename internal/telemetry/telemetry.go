// Package telemetry is the observability layer for both the simulated
// machine and the host that runs it.
//
// The machine is observed through core.Probe sinks (probe.go): a per-uop
// pipetrace, the dynamic-predication episode timeline, an interval
// Stats sampler and a progress probe. Host work (internal/sched, exp,
// sample, gen/diff and serve) is observed through three stores, each
// the one home of what it holds: the feed (feed.go) holds lifecycle
// events, the metrics Registry (metrics.go) holds measurements, and the
// span Tracer (span.go) holds the timeline. Attach and Set.Finish are
// the CLIs' one start/finish pair; with a directory they record the
// artifacts dmpobs -telemetry validates (dir.go).
//
// Nothing here touches core.Config, core.Stats or any simulated state,
// so attaching any of it leaves every golden table byte-identical
// (pinned by TestObserversDoNotPerturb and TestTelemetryDoesNotPerturb).
// Detached, the cost is a nil compare per probe hook site and, on host
// paths, atomic metric updates plus a nil check on the active Set:
// Enable installs the process-global Set, Active returns it (nil =
// disabled), and spans and feed events are emitted only behind that
// check.
package telemetry

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Set bundles one process's attached telemetry: the span tracer and the
// lifecycle feed (measurements live in DefaultRegistry, always on).
// Construct with New or Attach; a nil *Set is the disabled state, on
// which the accessors and Close are cheap no-ops, so call sites need no
// branching of their own.
type Set struct {
	tracer *Tracer
	feed   *Feed

	mu      sync.Mutex
	closers []io.Closer
	closed  bool

	// The run Attach started, which Finish ends.
	dir      string
	root     *Span
	start    time.Time
	progress *Progress
}

// Options configures New. Any writer may be nil to disable that output;
// the feed's subscriber API works with or without a writer.
type Options struct {
	// SpanW receives the Chrome trace_event JSON array of host-side
	// spans (Perfetto-loadable).
	SpanW io.Writer
	// EventW receives the lifecycle feed as JSON Lines.
	EventW io.Writer
}

// New builds a telemetry set. It does not install it; call Enable.
func New(o Options) *Set {
	s := &Set{feed: NewFeed(o.EventW)}
	if o.SpanW != nil {
		s.tracer = NewTracer(o.SpanW)
	}
	return s
}

// Attach starts a process's telemetry run: it builds a set, enables it,
// opens a root span called name and emits a run-start event carrying
// msg. With dir set the set records the artifacts there (see dir.go);
// with dir empty it writes nothing, but the feed still reaches its
// subscribers and the registry still counts. End the run with Finish.
func Attach(dir, name, msg string) (*Set, error) {
	s := New(Options{})
	if dir != "" {
		var err error
		if s, err = openDir(dir); err != nil {
			return nil, err
		}
		s.dir = dir
	}
	Enable(s)
	s.start = time.Now()
	s.root = s.tracer.Begin(name, "run")
	s.feed.Emit(Event{Kind: "run-start", Name: name, Msg: msg})
	return s, nil
}

// Render draws the feed's progress on w with a Progress renderer (in
// place on a terminal, one line per progress event otherwise) until
// Finish.
func (s *Set) Render(w io.Writer) {
	s.progress = NewProgress(w, isTerminal(w))
	s.feed.Subscribe(s.progress.Event)
}

// Root returns the root span Attach opened (nil without a tracer, and
// a nil *Span is inert).
func (s *Set) Root() *Span {
	if s == nil {
		return nil
	}
	return s.root
}

// Finish ends the run Attach started: a run-end event carrying the wall
// seconds, the root span's end, Close, and Enable(nil). With an output
// directory it then records the final metrics snapshot there.
func (s *Set) Finish() error {
	s.feed.Emit(Event{Kind: "run-end", V: time.Since(s.start).Seconds()})
	s.root.End()
	err := s.Close()
	s.progress.Finish()
	Enable(nil)
	if s.dir != "" {
		err = errors.Join(err, writeMetrics(s.dir, DefaultRegistry().Snapshot()))
	}
	return err
}

// Tracer returns the span tracer, or nil when the set is nil or was
// built without a span writer. A nil *Tracer is itself inert, so
// callers may chain without checking.
func (s *Set) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Feed returns the lifecycle feed, or nil on a nil set (a nil *Feed is
// inert).
func (s *Set) Feed() *Feed {
	if s == nil {
		return nil
	}
	return s.feed
}

// Close flushes the tracer and feed and closes the files behind them.
// Idempotent.
func (s *Set) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	errs := []error{s.tracer.Close(), s.feed.Close()}
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i].Close())
	}
	return errors.Join(errs...)
}

// --- process-global activation ---

var active atomic.Pointer[Set]

// Enable installs s as the process's active telemetry set (nil
// disables). Like the exp worker pool, activation is process-wide: the
// instrumented packages observe whatever set is active when they run.
func Enable(s *Set) { active.Store(s) }

// Active returns the active set, or nil when telemetry is disabled.
// The load is one atomic pointer read; instrumentation sites call it
// once per logical operation, never per hot-loop iteration.
func Active() *Set { return active.Load() }

// Emit publishes an event on the active feed, if any.
func Emit(ev Event) { Active().Feed().Emit(ev) }
