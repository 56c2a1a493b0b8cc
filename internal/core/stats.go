package core

import (
	"fmt"
	"math"
)

// Stats aggregates everything the paper's evaluation reports.
type Stats struct {
	Cycles uint64

	// Retired program instructions with TRUE (or no) predicate: the IPC
	// numerator (predicate-FALSE instructions and inserted uops do not
	// contribute, Section 3.1).
	RetiredInsts uint64
	// RetiredFalse counts retired predicate-FALSE program instructions.
	RetiredFalse uint64
	// RetiredSelects / RetiredMarkers count retired select-uops and
	// enter/exit/fork uops (the "extra uops" of Figure 12).
	RetiredSelects uint64
	RetiredMarkers uint64

	// Fetch-side counts (Figure 12 left, Figure 1).
	FetchedInsts   uint64 // program instructions fetched (incl. wrong path)
	FetchedWrongCD uint64 // wrong-path fetches, control-dependent
	FetchedWrongCI uint64 // wrong-path fetches, control-independent
	FetchedMarkers uint64 // inserted uops entering the pipe at fetch

	// Executed counts (Figure 12 right): every uop that issued.
	ExecutedInsts   uint64
	ExecutedSelects uint64
	ExecutedMarkers uint64

	// Branches (Table 3), counted at retirement of predicate-TRUE
	// conditional branches.
	RetiredBranches    uint64
	RetiredMispredicts uint64

	// Pipeline flushes due to branch mispredictions (Figure 11).
	Flushes uint64

	// Dynamic predication episodes by Table-1 exit case (Figures 8/10).
	ExitCases [7]uint64 // indexed by ExitCase; [0] = squashed episodes
	// Episodes converted back to normal branches.
	EarlyExits     uint64
	MDBConversions uint64
	Episodes       uint64

	// Confidence estimator quality: low-confidence diverge fetches that
	// were actually correct / incorrect.
	LowConfCorrect uint64
	LowConfWrong   uint64

	// Merge-point predictor (internal/merge; CFMSource dynamic/hybrid).
	// Hits/Misses count fetch-side lookups for low-confidence branches
	// with no usable annotation; Evictions/Trainings mirror the
	// predictor's own counters at end of run. MergeMispredicts counts
	// learned-CFM episodes abandoned by early exit (the alternate path
	// never reached the predicted merge point); DynCFMEpisodes counts
	// episodes entered from a predictor-supplied CFM.
	MergeHits        uint64
	MergeMisses      uint64
	MergeEvictions   uint64
	MergeTrainings   uint64
	MergeMispredicts uint64
	DynCFMEpisodes   uint64

	// Memory system.
	L1IMisses, L1DMisses, L2Misses uint64

	// Loads that had to wait on store predicates or unknown addresses.
	LoadStalls uint64

	// Oracle lockstep health: pauses (fetch left the correct path) and
	// resumes. A large gap means the oracle spent the run detached and
	// wrong-path classification degraded to control-dependent.
	OraclePauses, OracleResumes uint64

	// HaltRetired reports whether the program ran to completion.
	HaltRetired bool

	// Simulator throughput. FetchedUops counts every window entry the
	// machine created (program instructions, markers and select-uops,
	// wrong path included); WallSeconds is the host wall-clock time of
	// Machine.Run. Both describe the simulator, not the simulated machine,
	// so they are excluded from experiment tables and determinism
	// comparisons.
	FetchedUops uint64
	WallSeconds float64
}

// Clone returns an independent copy of s. Results shared through the
// experiment result cache are frozen; a caller that wants to mutate one
// (accumulate, rescale, zero a field) must work on a Clone.
func (s *Stats) Clone() *Stats {
	c := *s
	return &c
}

// Delta returns the field-wise difference s - prev for every counter:
// what happened between two snapshots of the same run. Counters are
// monotonic during a run, so each difference is well-defined; the
// interval sampler (internal/telemetry) builds its per-interval rows from
// this. HaltRetired is taken from s.
func (s *Stats) Delta(prev *Stats) Stats {
	d := Stats{
		Cycles:             s.Cycles - prev.Cycles,
		RetiredInsts:       s.RetiredInsts - prev.RetiredInsts,
		RetiredFalse:       s.RetiredFalse - prev.RetiredFalse,
		RetiredSelects:     s.RetiredSelects - prev.RetiredSelects,
		RetiredMarkers:     s.RetiredMarkers - prev.RetiredMarkers,
		FetchedInsts:       s.FetchedInsts - prev.FetchedInsts,
		FetchedWrongCD:     s.FetchedWrongCD - prev.FetchedWrongCD,
		FetchedWrongCI:     s.FetchedWrongCI - prev.FetchedWrongCI,
		FetchedMarkers:     s.FetchedMarkers - prev.FetchedMarkers,
		ExecutedInsts:      s.ExecutedInsts - prev.ExecutedInsts,
		ExecutedSelects:    s.ExecutedSelects - prev.ExecutedSelects,
		ExecutedMarkers:    s.ExecutedMarkers - prev.ExecutedMarkers,
		RetiredBranches:    s.RetiredBranches - prev.RetiredBranches,
		RetiredMispredicts: s.RetiredMispredicts - prev.RetiredMispredicts,
		Flushes:            s.Flushes - prev.Flushes,
		EarlyExits:         s.EarlyExits - prev.EarlyExits,
		MDBConversions:     s.MDBConversions - prev.MDBConversions,
		Episodes:           s.Episodes - prev.Episodes,
		LowConfCorrect:     s.LowConfCorrect - prev.LowConfCorrect,
		LowConfWrong:       s.LowConfWrong - prev.LowConfWrong,
		MergeHits:          s.MergeHits - prev.MergeHits,
		MergeMisses:        s.MergeMisses - prev.MergeMisses,
		MergeEvictions:     s.MergeEvictions - prev.MergeEvictions,
		MergeTrainings:     s.MergeTrainings - prev.MergeTrainings,
		MergeMispredicts:   s.MergeMispredicts - prev.MergeMispredicts,
		DynCFMEpisodes:     s.DynCFMEpisodes - prev.DynCFMEpisodes,
		L1IMisses:          s.L1IMisses - prev.L1IMisses,
		L1DMisses:          s.L1DMisses - prev.L1DMisses,
		L2Misses:           s.L2Misses - prev.L2Misses,
		LoadStalls:         s.LoadStalls - prev.LoadStalls,
		OraclePauses:       s.OraclePauses - prev.OraclePauses,
		OracleResumes:      s.OracleResumes - prev.OracleResumes,
		HaltRetired:        s.HaltRetired,
		FetchedUops:        s.FetchedUops - prev.FetchedUops,
		WallSeconds:        s.WallSeconds - prev.WallSeconds,
	}
	for i := range d.ExitCases {
		d.ExitCases[i] = s.ExitCases[i] - prev.ExitCases[i]
	}
	return d
}

// Add returns the field-wise sum s + o for every counter: the combined
// totals of two disjoint measurement windows (the sampling driver sums
// its detailed intervals this way before extrapolating). HaltRetired is
// OR-ed — the union of two windows ran to completion if either did.
func (s *Stats) Add(o *Stats) Stats {
	a := Stats{
		Cycles:             s.Cycles + o.Cycles,
		RetiredInsts:       s.RetiredInsts + o.RetiredInsts,
		RetiredFalse:       s.RetiredFalse + o.RetiredFalse,
		RetiredSelects:     s.RetiredSelects + o.RetiredSelects,
		RetiredMarkers:     s.RetiredMarkers + o.RetiredMarkers,
		FetchedInsts:       s.FetchedInsts + o.FetchedInsts,
		FetchedWrongCD:     s.FetchedWrongCD + o.FetchedWrongCD,
		FetchedWrongCI:     s.FetchedWrongCI + o.FetchedWrongCI,
		FetchedMarkers:     s.FetchedMarkers + o.FetchedMarkers,
		ExecutedInsts:      s.ExecutedInsts + o.ExecutedInsts,
		ExecutedSelects:    s.ExecutedSelects + o.ExecutedSelects,
		ExecutedMarkers:    s.ExecutedMarkers + o.ExecutedMarkers,
		RetiredBranches:    s.RetiredBranches + o.RetiredBranches,
		RetiredMispredicts: s.RetiredMispredicts + o.RetiredMispredicts,
		Flushes:            s.Flushes + o.Flushes,
		EarlyExits:         s.EarlyExits + o.EarlyExits,
		MDBConversions:     s.MDBConversions + o.MDBConversions,
		Episodes:           s.Episodes + o.Episodes,
		LowConfCorrect:     s.LowConfCorrect + o.LowConfCorrect,
		LowConfWrong:       s.LowConfWrong + o.LowConfWrong,
		MergeHits:          s.MergeHits + o.MergeHits,
		MergeMisses:        s.MergeMisses + o.MergeMisses,
		MergeEvictions:     s.MergeEvictions + o.MergeEvictions,
		MergeTrainings:     s.MergeTrainings + o.MergeTrainings,
		MergeMispredicts:   s.MergeMispredicts + o.MergeMispredicts,
		DynCFMEpisodes:     s.DynCFMEpisodes + o.DynCFMEpisodes,
		L1IMisses:          s.L1IMisses + o.L1IMisses,
		L1DMisses:          s.L1DMisses + o.L1DMisses,
		L2Misses:           s.L2Misses + o.L2Misses,
		LoadStalls:         s.LoadStalls + o.LoadStalls,
		OraclePauses:       s.OraclePauses + o.OraclePauses,
		OracleResumes:      s.OracleResumes + o.OracleResumes,
		HaltRetired:        s.HaltRetired || o.HaltRetired,
		FetchedUops:        s.FetchedUops + o.FetchedUops,
		WallSeconds:        s.WallSeconds + o.WallSeconds,
	}
	for i := range a.ExitCases {
		a.ExitCases[i] = s.ExitCases[i] + o.ExitCases[i]
	}
	return a
}

// Scale returns s with every counter multiplied by f (integer counters
// round half up): the extrapolation step of sampled simulation, where
// the summed detailed-interval counters are scaled by the ratio of total
// program instructions to sampled instructions. Ratios of scaled
// counters (IPC, misprediction rate, ...) equal the ratios of the
// unscaled sums, so derived metrics survive extrapolation exactly.
// HaltRetired copies.
func (s *Stats) Scale(f float64) Stats {
	su := func(v uint64) uint64 { return uint64(math.Floor(float64(v)*f + 0.5)) }
	c := Stats{
		Cycles:             su(s.Cycles),
		RetiredInsts:       su(s.RetiredInsts),
		RetiredFalse:       su(s.RetiredFalse),
		RetiredSelects:     su(s.RetiredSelects),
		RetiredMarkers:     su(s.RetiredMarkers),
		FetchedInsts:       su(s.FetchedInsts),
		FetchedWrongCD:     su(s.FetchedWrongCD),
		FetchedWrongCI:     su(s.FetchedWrongCI),
		FetchedMarkers:     su(s.FetchedMarkers),
		ExecutedInsts:      su(s.ExecutedInsts),
		ExecutedSelects:    su(s.ExecutedSelects),
		ExecutedMarkers:    su(s.ExecutedMarkers),
		RetiredBranches:    su(s.RetiredBranches),
		RetiredMispredicts: su(s.RetiredMispredicts),
		Flushes:            su(s.Flushes),
		EarlyExits:         su(s.EarlyExits),
		MDBConversions:     su(s.MDBConversions),
		Episodes:           su(s.Episodes),
		LowConfCorrect:     su(s.LowConfCorrect),
		LowConfWrong:       su(s.LowConfWrong),
		MergeHits:          su(s.MergeHits),
		MergeMisses:        su(s.MergeMisses),
		MergeEvictions:     su(s.MergeEvictions),
		MergeTrainings:     su(s.MergeTrainings),
		MergeMispredicts:   su(s.MergeMispredicts),
		DynCFMEpisodes:     su(s.DynCFMEpisodes),
		L1IMisses:          su(s.L1IMisses),
		L1DMisses:          su(s.L1DMisses),
		L2Misses:           su(s.L2Misses),
		LoadStalls:         su(s.LoadStalls),
		OraclePauses:       su(s.OraclePauses),
		OracleResumes:      su(s.OracleResumes),
		HaltRetired:        s.HaltRetired,
		FetchedUops:        su(s.FetchedUops),
		WallSeconds:        s.WallSeconds * f,
	}
	for i := range c.ExitCases {
		c.ExitCases[i] = su(s.ExitCases[i])
	}
	return c
}

// SimCyclesPerSec returns simulated cycles per host wall-clock second.
func (s *Stats) SimCyclesPerSec() float64 {
	if s.WallSeconds <= 0 {
		return 0
	}
	return float64(s.Cycles) / s.WallSeconds
}

// RetiredUopsPerSec returns retired window entries (program instructions,
// FALSE-predicate instructions, selects and markers) per host wall-clock
// second.
func (s *Stats) RetiredUopsPerSec() float64 {
	if s.WallSeconds <= 0 {
		return 0
	}
	return float64(s.CommittedWork()) / s.WallSeconds
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RetiredInsts) / float64(s.Cycles)
}

// MispredictRate returns the conditional branch misprediction rate.
func (s *Stats) MispredictRate() float64 {
	if s.RetiredBranches == 0 {
		return 0
	}
	return float64(s.RetiredMispredicts) / float64(s.RetiredBranches)
}

// MPKI returns mispredictions per thousand retired instructions.
func (s *Stats) MPKI() float64 {
	if s.RetiredInsts == 0 {
		return 0
	}
	return 1000 * float64(s.RetiredMispredicts) / float64(s.RetiredInsts)
}

// WrongPathFrac returns the fraction of fetched program instructions that
// were on the wrong path (Figure 1's total height).
func (s *Stats) WrongPathFrac() float64 {
	if s.FetchedInsts == 0 {
		return 0
	}
	return float64(s.FetchedWrongCD+s.FetchedWrongCI) / float64(s.FetchedInsts)
}

// ExecutedTotal returns all issued uops, including wrong-path work that
// was later flushed.
func (s *Stats) ExecutedTotal() uint64 {
	return s.ExecutedInsts + s.ExecutedSelects + s.ExecutedMarkers
}

// CommittedWork returns the instructions the machine carried to
// retirement: program instructions (TRUE and FALSE predicates) plus the
// inserted select and marker uops. This is the paper's Figure-12
// "executed instructions" metric — dynamic predication raises it (FALSE
// paths and extra uops) even as flushed wrong-path work falls.
func (s *Stats) CommittedWork() uint64 {
	return s.RetiredInsts + s.RetiredFalse + s.RetiredSelects + s.RetiredMarkers
}

// round2 rounds to two decimals with halves away from zero. fmt's %.2f
// rounds halves to even, so e.g. a 0.125% misprediction rate (1 in 800)
// would print as "0.12" — the conventional half-up result is 0.13.
func round2(v float64) float64 {
	return math.Floor(v*100+0.5) / 100
}

func (s *Stats) String() string {
	return fmt.Sprintf(
		"cycles=%d retired=%d IPC=%.3f br=%d misp=%d (%.2f%%) flushes=%d fetched=%d (wrongCD=%d wrongCI=%d) exec=%d sel=%d mark=%d episodes=%d cases=%v",
		s.Cycles, s.RetiredInsts, s.IPC(), s.RetiredBranches, s.RetiredMispredicts,
		round2(100*s.MispredictRate()), s.Flushes, s.FetchedInsts, s.FetchedWrongCD,
		s.FetchedWrongCI, s.ExecutedInsts, s.ExecutedSelects, s.ExecutedMarkers,
		s.Episodes, s.ExitCases)
}
