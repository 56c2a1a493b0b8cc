package telemetry

import (
	"fmt"
	"time"

	"dmp/internal/core"
)

// The probe sinks make the simulated machine observable through the
// core.Probe hooks: Pipetrace (per-uop stage timing), EpisodeLog (the
// dynamic-predication episode timeline), IntervalSampler (Stats deltas
// every N cycles) and ProgressProbe (live progress on the feed). Every
// sink exposes Probe() *core.Probe (ProgressProbe is one); attach one
// with Machine.SetProbe, or several through Tee. Sinks only observe:
// they never mutate core.Stats, and a run with all of them attached
// retires the exact same instruction stream as an unobserved run
// (pinned by TestObserversDoNotPerturb).

// Tee fans one machine probe out to several sinks. Nil probes (and nil
// callbacks within a probe) are skipped. The merged Tick runs at the
// gcd of the children's cadences and re-checks each child's own
// cadence, so every child observes exactly the cycles it asked for.
func Tee(probes ...*core.Probe) *core.Probe {
	var ps []*core.Probe
	for _, p := range probes {
		if p != nil {
			if p.Tick != nil && p.TickEvery == 0 {
				p.TickEvery = core.DefaultTickEvery
			}
			ps = append(ps, p)
		}
	}
	if len(ps) == 1 {
		return ps[0]
	}
	out := &core.Probe{}
	if len(ps) == 0 {
		return out
	}

	var uops []func(core.UopEvent)
	var eps []func(core.EpisodeEvent)
	var oracles []func(core.OracleEvent)
	var ticks []*core.Probe
	var dones []func(*core.Stats)
	for _, p := range ps {
		if p.Uop != nil {
			uops = append(uops, p.Uop)
		}
		if p.Episode != nil {
			eps = append(eps, p.Episode)
		}
		if p.Oracle != nil {
			oracles = append(oracles, p.Oracle)
		}
		if p.Tick != nil {
			ticks = append(ticks, p)
			out.TickEvery = gcd(out.TickEvery, p.TickEvery)
		}
		if p.Done != nil {
			dones = append(dones, p.Done)
		}
	}
	if len(uops) > 0 {
		out.Uop = func(ev core.UopEvent) {
			for _, f := range uops {
				f(ev)
			}
		}
	}
	if len(eps) > 0 {
		out.Episode = func(ev core.EpisodeEvent) {
			for _, f := range eps {
				f(ev)
			}
		}
	}
	if len(oracles) > 0 {
		out.Oracle = func(ev core.OracleEvent) {
			for _, f := range oracles {
				f(ev)
			}
		}
	}
	if len(ticks) > 0 {
		out.Tick = func(cycle uint64, s *core.Stats) {
			for _, p := range ticks {
				if cycle%p.TickEvery == 0 {
					p.Tick(cycle, s)
				}
			}
		}
	}
	if len(dones) > 0 {
		out.Done = func(s *core.Stats) {
			for _, f := range dones {
				f(s)
			}
		}
	}
	return out
}

func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// progressTick is the cycle cadence at which ProgressProbe reads the
// wall clock: frequent enough to hit a multi-second reporting period
// within tens of milliseconds at real simulator speeds, rare enough to
// keep time.Now off the per-cycle path.
const progressTick = 1 << 14

// ProgressProbe emits a "progress" event on f at most once per `every`
// of wall time (0 means 5 s): the simulated cycle, retired instructions,
// and the sim IPC and simulator throughput over the interval. It rides
// the probe's cycle-gated Tick, so it runs on the simulation goroutine
// with no timers and reads the clock only every 2^14 cycles.
func ProgressProbe(f *Feed, every time.Duration) *core.Probe {
	if every <= 0 {
		every = 5 * time.Second
	}
	var (
		started bool
		last    time.Time
		lastCyc uint64
		lastRet uint64
	)
	return &core.Probe{TickEvery: progressTick, Tick: func(cycle uint64, st *core.Stats) {
		now := time.Now()
		if !started {
			started = true
			last, lastCyc, lastRet = now, cycle, st.RetiredInsts
			return
		}
		dt := now.Sub(last)
		if dt < every {
			return
		}
		dc, dr := cycle-lastCyc, st.RetiredInsts-lastRet
		ipc := 0.0
		if dc > 0 {
			ipc = float64(dr) / float64(dc)
		}
		secs := dt.Seconds()
		f.Emit(Event{Kind: "progress", Msg: fmt.Sprintf("cycle %d, retired %d, sim-IPC %.3f, %.1f Mcycles/s, %.2f MIPS",
			cycle, st.RetiredInsts, ipc, float64(dc)/secs/1e6, float64(dr)/secs/1e6)})
		last, lastCyc, lastRet = now, cycle, st.RetiredInsts
	}}
}
