package core

import "dmp/internal/isa"

// This file is the machine's observability hook layer. A Probe is a set
// of optional callbacks the machine invokes at pipeline and
// dynamic-predication events; internal/telemetry builds sinks
// (pipetrace, episode timeline, interval sampler, progress) on top of it.
//
// The contract is zero overhead when disabled: every hook site in the
// per-cycle pipeline code is a single predictable `m.probe != nil`
// branch, event structs are only constructed after that branch, and the
// dmpvet hotalloc analyzer enforces the guard on every probe call inside
// a //dmp:hotpath function. Probes observe only — they receive
// read-only views and must not retain the *Stats pointer past the
// callback — so attaching any probe leaves Stats and all experiment
// output byte-identical.

// UopKind is the exported view of a window entry's kind, for probe
// consumers. The values alias the machine's internal kinds.
type UopKind = uopKind

// Exported uop kinds.
const (
	UopInst      UopKind = kindInst
	UopEnterPred UopKind = kindEnterPred
	UopEnterAlt  UopKind = kindEnterAlt
	UopExitPred  UopKind = kindExitPred
	UopSelect    UopKind = kindSelect
	UopFork      UopKind = kindFork
)

// UopStage identifies which pipeline event a UopEvent reports.
type UopStage uint8

// Pipeline event stages, in the order a uop normally experiences them.
// StageMemBlock reports a load parked by the store buffer (unknown store
// address or an unresolved cross-path store predicate); StageSquash ends
// a uop killed by a flush, an episode conversion or a fork resolution.
const (
	StageFetch UopStage = iota
	StageRename
	StageIssue
	StageComplete
	StageRetire
	StageSquash
	StageMemBlock
)

func (s UopStage) String() string {
	switch s {
	case StageFetch:
		return "fetch"
	case StageRename:
		return "rename"
	case StageIssue:
		return "issue"
	case StageComplete:
		return "complete"
	case StageRetire:
		return "retire"
	case StageSquash:
		return "squash"
	case StageMemBlock:
		return "memblock"
	}
	return "stage?"
}

// UopEvent is one per-uop pipeline event.
type UopEvent struct {
	Cycle uint64
	// ID is unique per uop in creation order (1-based). Seq is the ROB
	// age tag and is NOT unique: select-uops share their exit marker's
	// seq so they sit at its point in program order.
	ID     uint64
	Seq    uint64
	PC     uint64
	Stage  UopStage
	Kind   UopKind
	Inst   isa.Inst
	PredID int  // predicate register id (0 = unpredicated)
	OnAlt  bool // fetched on the alternate path of its episode
	Stream int  // dual-path stream (0 = primary)
	// False is set on StageRetire when the uop retired with a FALSE
	// predicate (it became a NOP).
	False bool
	// Extra is stage-specific: for StageMemBlock, the seq of the
	// store-buffer entry that blocked the load.
	Extra uint64
}

// EpisodeKind identifies a dynamic-predication episode event.
type EpisodeKind uint8

// Episode lifecycle events. EpResolve carries the Table-1 exit case;
// EpSquash is an episode killed by a pipeline flush (counted in
// Stats.ExitCases[0]); the conversion kinds revert the diverge branch to
// a normal predicted branch without an exit case.
const (
	EpEnter EpisodeKind = iota
	EpCFMReached
	EpExitPred
	EpEarlyExit
	EpMDBConvert
	EpDualAbort
	EpResolve
	EpSquash
)

func (k EpisodeKind) String() string {
	switch k {
	case EpEnter:
		return "enter"
	case EpCFMReached:
		return "cfm-reached"
	case EpExitPred:
		return "exit-pred"
	case EpEarlyExit:
		return "early-exit"
	case EpMDBConvert:
		return "mdb-convert"
	case EpDualAbort:
		return "dual-abort"
	case EpResolve:
		return "resolve"
	case EpSquash:
		return "squash"
	}
	return "ep?"
}

// EpisodeEvent is one dynamic-predication (or dual-path) episode event.
type EpisodeEvent struct {
	Cycle      uint64
	ID         int // episode id (monotonic per machine)
	Kind       EpisodeKind
	DivergePC  uint64
	CFM        uint64   // chosen CFM point (0 until EpCFMReached)
	Case       ExitCase // valid on EpResolve
	AltFetched int      // alternate-path instructions fetched so far
	Loop       bool
	Dual       bool
	// DynCFM marks an episode whose CFM point was supplied by the runtime
	// merge-point predictor instead of a compiler annotation.
	DynCFM bool
}

// OracleEvent reports the fetch oracle leaving (Resumed=false) or
// re-forming (Resumed=true) lockstep with the fetch stream — the
// boundaries of the wrong-path fetch episodes behind Figure 1.
type OracleEvent struct {
	Cycle     uint64
	Resumed   bool
	ArchSteps uint64 // architectural instructions the oracle has executed
}

// DefaultTickEvery is the Tick cadence used when a Probe supplies a Tick
// callback without a cadence.
const DefaultTickEvery = 1 << 16

// Probe is a set of observability callbacks. Any field may be nil; a nil
// callback costs exactly one predicted branch at its hook sites. Attach
// with Machine.SetProbe before Run; callbacks run on the simulation
// goroutine, so they need no locking but must not block.
type Probe struct {
	// Uop receives per-uop pipeline events (fetch, rename, issue,
	// complete, retire, squash, memblock).
	Uop func(UopEvent)
	// Episode receives dynamic-predication episode lifecycle events.
	Episode func(EpisodeEvent)
	// Oracle receives fetch-oracle pause/resume events.
	Oracle func(OracleEvent)
	// Tick is called every TickEvery cycles with the current cycle and a
	// read-only view of the live Stats (Cycles is not yet set mid-run;
	// use the cycle argument). Callees must not retain the pointer.
	TickEvery uint64
	Tick      func(cycle uint64, s *Stats)
	// Done is called once at the end of Run, after Stats is final,
	// including on error runs — sinks flush here.
	Done func(s *Stats)
}

// SetProbe attaches a probe (nil detaches). Must be called before Run.
func (m *Machine) SetProbe(p *Probe) {
	if p != nil && p.Tick != nil && p.TickEvery == 0 {
		p.TickEvery = DefaultTickEvery
	}
	m.probe = p
}

// --- emit helpers ---
//
// Every caller must guard with `if m.probe != nil` (dmpvet's hotalloc
// analyzer enforces this inside //dmp:hotpath functions); the helpers
// re-check the individual callback so a probe may subscribe to a subset.

func (m *Machine) probeUop(stage UopStage, u *uop) {
	p := m.probe
	if p == nil || p.Uop == nil {
		return
	}
	if u.obsID == 0 {
		m.obsSeq++
		u.obsID = m.obsSeq
	}
	ev := UopEvent{
		Cycle:  m.cycle,
		ID:     u.obsID,
		Seq:    u.seq,
		PC:     u.pc,
		Stage:  stage,
		Kind:   u.kind,
		Inst:   u.inst,
		PredID: u.predID,
		OnAlt:  u.onAlt,
		Stream: u.stream,
	}
	if stage == StageRetire && u.predID != 0 {
		ev.False = !m.preds.value(u.predID)
	}
	p.Uop(ev)
}

// probeMemBlock reports a load blocked by a store-buffer entry.
func (m *Machine) probeMemBlock(ld, blocker *uop) {
	p := m.probe
	if p == nil || p.Uop == nil {
		return
	}
	if ld.obsID == 0 {
		m.obsSeq++
		ld.obsID = m.obsSeq
	}
	p.Uop(UopEvent{
		Cycle: m.cycle, ID: ld.obsID, Seq: ld.seq, PC: ld.pc,
		Stage: StageMemBlock, Kind: ld.kind, Inst: ld.inst,
		PredID: ld.predID, OnAlt: ld.onAlt, Stream: ld.stream,
		Extra: blocker.seq,
	})
}

func (m *Machine) probeEpisode(kind EpisodeKind, ep *episode) {
	p := m.probe
	if p == nil || p.Episode == nil {
		return
	}
	p.Episode(EpisodeEvent{
		Cycle:      m.cycle,
		ID:         ep.id,
		Kind:       kind,
		DivergePC:  ep.divergeU.pc,
		CFM:        ep.cfm,
		Case:       ep.exitCase,
		AltFetched: ep.altFetched,
		Loop:       ep.loop,
		Dual:       ep.dual,
		DynCFM:     ep.dynCFM,
	})
}

func (m *Machine) probeOracle(resumed bool) {
	p := m.probe
	if p == nil || p.Oracle == nil {
		return
	}
	p.Oracle(OracleEvent{Cycle: m.cycle, Resumed: resumed, ArchSteps: m.oracle.steps()})
}

// probeTick drives the periodic Tick callback; called once per cycle
// under the caller's nil guard.
func (m *Machine) probeTick() {
	p := m.probe
	if p.Tick == nil || p.TickEvery == 0 || m.cycle%p.TickEvery != 0 {
		return
	}
	p.Tick(m.cycle, &m.Stats)
}

// probeDone fires the end-of-run callback.
func (m *Machine) probeDone() {
	if p := m.probe; p != nil && p.Done != nil {
		p.Done(&m.Stats)
	}
}
