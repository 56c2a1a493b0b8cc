package telemetry

import (
	"bufio"
	"fmt"
	"io"

	"dmp/internal/core"
)

// intervalHeader lists the CSV columns. The first column is the
// absolute cycle at the end of the interval; every other column is the
// per-interval delta of the matching core.Stats counter (ipc is derived
// from the interval's own retired/cycles). Summing a delta column over
// all rows reproduces the final Stats value (pinned by tests).
const intervalHeader = "cycle,ipc,cycles,retired,retired_false,selects,markers," +
	"fetched,fetched_markers,wrong_cd,wrong_ci," +
	"exec,exec_selects,exec_markers,branches,mispredicts,flushes," +
	"episodes,early_exits,mdb,exit0,exit1,exit2,exit3,exit4,exit5,exit6," +
	"lowconf_ok,lowconf_bad,l1i,l1d,l2,load_stalls,oracle_pauses,oracle_resumes,uops\n"

// IntervalSampler snapshots core.Stats every N cycles and writes one
// CSV row of deltas per interval: IPC-over-time and phase-behaviour
// plots fall straight out of the file. The final (possibly partial)
// interval is written at end of run, so column sums always equal the
// run's final Stats.
type IntervalSampler struct {
	w      *bufio.Writer
	every  uint64
	prev   core.Stats
	closed bool
}

// NewIntervalSampler creates a sampler writing CSV to w, one row per
// `every` cycles (0 uses core.DefaultTickEvery).
func NewIntervalSampler(w io.Writer, every uint64) *IntervalSampler {
	if every == 0 {
		every = core.DefaultTickEvery
	}
	s := &IntervalSampler{w: bufio.NewWriterSize(w, 1<<14), every: every}
	s.w.WriteString(intervalHeader) //nolint:errcheck // Flush reports
	return s
}

// Probe returns the probe to attach with Machine.SetProbe (or Tee).
func (s *IntervalSampler) Probe() *core.Probe {
	return &core.Probe{TickEvery: s.every, Tick: s.tick, Done: s.done}
}

func (s *IntervalSampler) tick(cycle uint64, st *core.Stats) {
	cur := *st         // snapshot by value; the live Stats is read-only here
	cur.Cycles = cycle // Run sets Stats.Cycles only at the end
	s.row(cycle, cur)
}

// done emits the final partial interval (Stats.Cycles is final here).
func (s *IntervalSampler) done(st *core.Stats) {
	s.row(st.Cycles, *st)
}

func (s *IntervalSampler) row(cycle uint64, cur core.Stats) {
	d := cur.Delta(&s.prev)
	s.prev = cur
	ipc := 0.0
	if d.Cycles > 0 {
		ipc = float64(d.RetiredInsts) / float64(d.Cycles)
	}
	fmt.Fprintf(s.w, "%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		cycle, ipc, d.Cycles, d.RetiredInsts, d.RetiredFalse, d.RetiredSelects, d.RetiredMarkers,
		d.FetchedInsts, d.FetchedMarkers, d.FetchedWrongCD, d.FetchedWrongCI,
		d.ExecutedInsts, d.ExecutedSelects, d.ExecutedMarkers, d.RetiredBranches, d.RetiredMispredicts, d.Flushes,
		d.Episodes, d.EarlyExits, d.MDBConversions,
		d.ExitCases[0], d.ExitCases[1], d.ExitCases[2], d.ExitCases[3], d.ExitCases[4], d.ExitCases[5], d.ExitCases[6],
		d.LowConfCorrect, d.LowConfWrong, d.L1IMisses, d.L1DMisses, d.L2Misses,
		d.LoadStalls, d.OraclePauses, d.OracleResumes, d.FetchedUops)
}

// Close flushes the CSV.
func (s *IntervalSampler) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.w.Flush()
}
