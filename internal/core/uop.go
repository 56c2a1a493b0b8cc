package core

import (
	"dmp/internal/bpred"
	"dmp/internal/isa"
)

// uopKind distinguishes program instructions from the uops the front end
// inserts to support dynamic predication (Section 2.4).
type uopKind uint8

const (
	kindInst uopKind = iota
	kindEnterPred
	kindEnterAlt
	kindExitPred
	kindSelect
	kindFork // dual-path fork marker
)

func (k uopKind) String() string {
	switch k {
	case kindInst:
		return "inst"
	case kindEnterPred:
		return "enter.pred.path"
	case kindEnterAlt:
		return "enter.alternate.path"
	case kindExitPred:
		return "exit.pred"
	case kindSelect:
		return "select-uop"
	case kindFork:
		return "fork"
	}
	return "uop?"
}

// operand is one renamed source of a uop. Either it is ready with a
// value, or it names the sequence number of the producing uop, which will
// broadcast the value at completion.
type operand struct {
	ready    bool
	val      uint64
	producer uint64 // producer seq, valid when !ready
}

// uop is one entry of the machine's instruction window: a fetched
// instruction or inserted predication uop, carried from fetch to
// retirement. Every fetched uop is zeroed on alloc or recycle, so the
// flags are packed together at the end to keep the struct small.
type uop struct {
	seq  uint64 // global age; also the rename tag of the destination
	pc   uint64
	inst isa.Inst

	// Renamed sources. src3 is used only by select-uops (the second data
	// input; src1/src2 convention: src1 = predicated-path value, src2 is
	// unused, src3 = alternate-path value... see rename.go).
	src1, src2, src3 operand
	numSrc           int

	dstVal   uint64
	renameAt uint64 // earliest cycle this uop may rename (front-end delay)
	sqBy     uint64 // debug: seq of the flush point that squashed this uop
	sqAt     uint64 // debug: cycle of the squash
	sqHow    string // debug: which mechanism squashed it

	// waiters are consumers renamed against this uop's destination that
	// were not ready at rename time; completion wakes them.
	waiters []waiter

	// Dynamic predication.
	ep      *episode // episode this uop belongs to (nil outside DP mode)
	predID  int      // predicate register id (0 = not predicated)
	selPred int      // select-uop: predicate id it muxes on

	// Branch state (conditional and other control).
	predictedNext uint64    // predicted next fetch PC
	actualNext    uint64    // resolved next PC
	fetchGHR      bpred.GHR // speculative GHR *before* this branch's prediction
	fetchSnap     *fetchSnapshot
	checkpoint    *ratCheckpoint

	addr        uint64 // memory address (loads and stores)
	oracleCount uint64 // oracle: architectural step count after it ran this uop

	// Dual path.
	stream int // 0 = primary, 1 = forked stream

	// Observability: unique pipetrace id, assigned lazily on the first
	// probe event for this uop (0 = none yet). Unlike seq it is never
	// shared between uops.
	obsID uint64

	kind uopKind

	// Destination.
	hasDst  bool
	dstArch isa.Reg

	// Scheduling state.
	renamed  bool
	issued   bool
	done     bool
	squashed bool // killed by a pipeline flush; never retires
	inReady  bool // currently queued in the ready list
	inReplay bool // load parked for store-buffer replay

	onAlt bool // fetched on the alternate path of its episode

	predictedTaken bool
	actualTaken    bool
	resolved       bool
	mispredicted   bool
	isDiverge      bool // fetched as a dynamically predicated diverge branch
	dpConverted    bool // diverge reverted to a normal branch (early exit / MDB)
	lowConf        bool

	isLoad, isStore bool
	addrValid       bool

	// Oracle bookkeeping (statistics and perfect prediction/confidence).
	onPath      bool // fetched while the oracle was in lockstep: the oracle executed it
	oracleTaken bool // oracle outcome, valid for on-path branches
}

// waiter records a consumer waiting on a producer's completion.
type waiter struct {
	u     *uop
	which int // 1, 2 or 3: which source operand
}

// srcReady reports whether all renamed sources are available.
func (u *uop) srcReady() bool {
	return (u.numSrc < 1 || u.src1.ready) &&
		(u.numSrc < 2 || u.src2.ready) &&
		(u.numSrc < 3 || u.src3.ready)
}

// isMarker reports whether the uop is a zero-latency bookkeeping uop
// (enter/exit/fork markers execute trivially).
func (u *uop) isMarker() bool {
	return u.kind == kindEnterPred || u.kind == kindEnterAlt ||
		u.kind == kindExitPred || u.kind == kindFork
}

// countsAsInst reports whether the uop contributes to the retired
// instruction count (program instructions with TRUE or no predicate;
// decided at retirement together with the predicate value).
func (u *uop) countsAsInst() bool { return u.kind == kindInst }
