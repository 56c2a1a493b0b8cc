package telemetry

import (
	"bufio"
	"fmt"
	"io"

	"dmp/internal/core"
)

// EpisodeLog writes a dynamic-predication episode timeline as JSON
// Lines: one object per episode lifecycle event (enter, cfm-reached,
// exit-pred, early-exit, mdb-convert, dual-abort, resolve, squash) plus
// the fetch oracle's pause/resume events. It also tallies Table-1
// exit-case attribution exactly the way core.Stats.ExitCases does —
// resolve events by their case, squash events into index 0 — so
// Cases() must equal the run's Stats.ExitCases (pinned by tests).
type EpisodeLog struct {
	w      *bufio.Writer
	cases  [7]uint64
	closed bool
}

// NewEpisodeLog creates an episode timeline sink writing JSONL to w.
func NewEpisodeLog(w io.Writer) *EpisodeLog {
	return &EpisodeLog{w: bufio.NewWriterSize(w, 1<<14)}
}

// Probe returns the probe to attach with Machine.SetProbe (or Tee).
func (l *EpisodeLog) Probe() *core.Probe {
	return &core.Probe{Episode: l.record, Oracle: l.oracle}
}

// Cases returns the exit-case tally, index-compatible with
// core.Stats.ExitCases ([0] = squashed episodes, [1..6] = Table 1).
func (l *EpisodeLog) Cases() [7]uint64 { return l.cases }

func (l *EpisodeLog) record(ev core.EpisodeEvent) {
	switch ev.Kind {
	case core.EpResolve:
		if int(ev.Case) >= 0 && int(ev.Case) < len(l.cases) {
			l.cases[ev.Case]++
		}
		fmt.Fprintf(l.w, "{\"cycle\":%d,\"ep\":%d,\"event\":%q,\"case\":%d,\"caseName\":%q,\"pc\":%d,\"cfm\":%d,\"alt\":%d,\"loop\":%t,\"dual\":%t,\"dyn\":%t}\n",
			ev.Cycle, ev.ID, ev.Kind.String(), int(ev.Case), ev.Case.String(),
			ev.DivergePC, ev.CFM, ev.AltFetched, ev.Loop, ev.Dual, ev.DynCFM)
	case core.EpSquash:
		l.cases[0]++
		fmt.Fprintf(l.w, "{\"cycle\":%d,\"ep\":%d,\"event\":%q,\"case\":0,\"caseName\":\"squashed\",\"pc\":%d,\"cfm\":%d,\"alt\":%d,\"loop\":%t,\"dual\":%t,\"dyn\":%t}\n",
			ev.Cycle, ev.ID, ev.Kind.String(),
			ev.DivergePC, ev.CFM, ev.AltFetched, ev.Loop, ev.Dual, ev.DynCFM)
	default:
		fmt.Fprintf(l.w, "{\"cycle\":%d,\"ep\":%d,\"event\":%q,\"pc\":%d,\"cfm\":%d,\"alt\":%d,\"loop\":%t,\"dual\":%t,\"dyn\":%t}\n",
			ev.Cycle, ev.ID, ev.Kind.String(),
			ev.DivergePC, ev.CFM, ev.AltFetched, ev.Loop, ev.Dual, ev.DynCFM)
	}
}

func (l *EpisodeLog) oracle(ev core.OracleEvent) {
	name := "oracle-pause"
	if ev.Resumed {
		name = "oracle-resume"
	}
	fmt.Fprintf(l.w, "{\"cycle\":%d,\"event\":%q,\"steps\":%d}\n", ev.Cycle, name, ev.ArchSteps)
}

// Close flushes the timeline.
func (l *EpisodeLog) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.w.Flush()
}
