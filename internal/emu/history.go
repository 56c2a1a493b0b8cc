package emu

import (
	"fmt"

	"dmp/internal/isa"
)

// History is a rolling undo log over an emulator's recent steps, trimmed
// from the front as the consumer's retirement frontier advances.
//
// Each executed instruction appends one small undo record: the PC it ran
// at, the destination register it overwrote and that register's old
// value, and how many memory writes had been logged before it. Stores
// additionally log the word they overwrote. RewindTo replays the records
// newest first, so a rewind costs O(steps undone) and a step costs one
// 24-byte append instead of a copy of the register file.
//
// The fetch oracle uses it to rewind to the architectural state
// immediately after any in-flight instruction: when a pipeline flush
// squashes fetched work the oracle had already executed, the machine
// rewinds the oracle to the flushing branch and both are exactly in
// lockstep again. The window never needs to reach behind retirement
// (retired instructions cannot be squashed), which bounds its size, and
// every rewind distance, by the instruction window.
type History struct {
	base uint64    // step count of the oldest rewindable point (Count - len(recs))
	recs []histRec // recs[i] undoes step base+i+1
	wr   []histWrite
}

// histRec undoes one step. Only a HALT sets Halted and nothing steps
// after it, so undoing any step also clears Halted.
type histRec struct {
	pc  uint64  // PC before the step
	old uint64  // Regs[reg] before the step (rewriting it is a no-op when reg was not written)
	nwr uint32  // memory writes logged before the step
	reg isa.Reg // destination register the step wrote (Zero = none)
}

type histWrite struct {
	addr, old uint64
}

// EnableHistory starts recording rewind state on every Step. The current
// state becomes the oldest rewindable point.
func (e *Emulator) EnableHistory() { e.EnableHistoryIn(new(History)) }

// EnableHistoryIn is EnableHistory recording into h, whose log storage
// is reused: h must not be recording for any other live emulator.
func (e *Emulator) EnableHistoryIn(h *History) {
	h.base, h.recs, h.wr = e.Count, h.recs[:0], h.wr[:0]
	e.hist = h
}

// RewindTo restores the emulator to its state immediately after step
// `count` (Count == count). count must lie inside the history window.
func (e *Emulator) RewindTo(count uint64) error {
	h := e.hist
	if h == nil {
		return fmt.Errorf("emu: RewindTo without history")
	}
	if count < h.base || count > e.Count {
		return fmt.Errorf("emu: RewindTo(%d) outside window [%d, %d]", count, h.base, e.Count)
	}
	idx := int(count - h.base)
	if idx == len(h.recs) {
		return nil
	}
	for i := len(h.recs) - 1; i >= idx; i-- {
		r := &h.recs[i]
		e.Regs[r.reg] = r.old
	}
	nwr := int(h.recs[idx].nwr)
	// Undo memory writes performed after the target, newest first.
	for i := len(h.wr) - 1; i >= nwr; i-- {
		e.Mem.Write(h.wr[i].addr, h.wr[i].old)
	}
	e.PC = h.recs[idx].pc
	e.Halted = false
	e.Count = count
	h.wr = h.wr[:nwr]
	h.recs = h.recs[:idx]
	return nil
}

// TrimHistory discards rewind state for steps before count: the caller
// guarantees it will never rewind that far back (those instructions
// retired).
func (e *Emulator) TrimHistory(count uint64) {
	h := e.hist
	if h == nil || count <= h.base {
		return
	}
	if count > e.Count {
		count = e.Count
	}
	idx := int(count - h.base)
	keep := len(h.wr)
	if idx < len(h.recs) {
		keep = int(h.recs[idx].nwr)
	}
	// Compact in place; the slices stay amortised O(1) per step.
	h.wr = append(h.wr[:0], h.wr[keep:]...)
	n := copy(h.recs, h.recs[idx:])
	h.recs = h.recs[:n]
	for i := range h.recs {
		h.recs[i].nwr -= uint32(keep)
	}
	h.base = count
}

// HistoryLen reports the current window size in steps, for tests.
func (e *Emulator) HistoryLen() int {
	if e.hist == nil {
		return 0
	}
	return len(e.hist.recs)
}
