package emu

import (
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Step describes one architecturally executed instruction: what it was,
// what it produced, and where control went. The out-of-order core's
// retirement checker compares against Steps; the profiler consumes them
// as a stream.
type Step struct {
	PC   uint64
	Inst isa.Inst
	// NextPC is the PC of the next instruction.
	NextPC uint64
	// Taken is meaningful for conditional branches.
	Taken bool
	// WroteReg / RegVal record the destination register write, if any.
	WroteReg bool
	Reg      isa.Reg
	RegVal   uint64
	// Mem access, if any.
	IsLoad, IsStore bool
	Addr, MemVal    uint64
	// Halted is set when the instruction was a HALT.
	Halted bool
}

// Emulator executes a program architecturally, one instruction per Step
// call. It is deterministic and has no timing.
type Emulator struct {
	Prog *prog.Program
	Regs [isa.NumRegs]uint64
	Mem  *Memory
	PC   uint64
	// Count is the number of instructions executed so far.
	Count uint64
	// Halted is set once HALT executes; further Steps return an error.
	Halted bool

	hist *History
	// ov is the store overlay Excursion reuses from one excursion to the
	// next (emptied at the start of each); never shared by clones.
	ov map[uint64]uint64
}

// New returns an emulator at the program entry with initial data memory
// loaded and the stack pointer set.
func New(p *prog.Program) *Emulator {
	e := &Emulator{Prog: p, Mem: NewMemory(), PC: p.Entry}
	for addr, val := range p.Data {
		e.Mem.Write(addr, val)
	}
	e.Regs[isa.SP] = p.StackBase
	return e
}

// Clone returns an independent copy of the emulator (used by the fetch
// oracle when it needs to checkpoint around speculative regions in tests).
func (e *Emulator) Clone() *Emulator {
	c := *e
	c.Mem = e.Mem.Clone()
	c.hist = nil // history does not transfer across clones
	c.ov = nil
	return &c
}

// Reg returns a register value (the zero register always reads zero).
func (e *Emulator) Reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return e.Regs[r]
}

func (e *Emulator) setReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		e.Regs[r] = v
	}
}

// Step executes one instruction and returns its Step record. Executing
// past a HALT or outside the code image returns an error: the golden
// model must never run wild, so this is a hard failure for the caller.
func (e *Emulator) Step() (Step, error) {
	var s Step
	err := e.step(&s)
	return s, err
}

// StepInto is Step writing the record into *s, which it zeroes first:
// loops that consume every record (functional warming) reuse one Step
// instead of copying a fresh one out per instruction.
func (e *Emulator) StepInto(s *Step) error {
	*s = Step{}
	return e.step(s)
}

// step executes one instruction, filling in *s, which must be zero on
// entry (left partial on error). Step is a small inlinable wrapper around
// it, so callers build the record in their own frame instead of copying
// it out of this one.
//
//dmp:hotpath
func (e *Emulator) step(s *Step) error {
	if e.Halted {
		return fmt.Errorf("emu: step after halt")
	}
	if !e.Prog.InCode(e.PC) {
		return fmt.Errorf("emu: pc %d outside code image", e.PC)
	}
	in := e.Prog.Code[e.PC]
	s.PC, s.Inst, s.NextPC = e.PC, in, e.PC+1
	var undo histRec
	if e.hist != nil {
		undo = histRec{pc: e.PC, nwr: uint32(len(e.hist.wr))}
		if in.HasDst() {
			undo.reg = in.Dst
		}
		undo.old = e.Regs[undo.reg]
	}

	switch {
	case in.IsALU():
		v := isa.EvalALU(in, e.Reg(in.Src1), e.Reg(in.Src2))
		e.setReg(in.Dst, v)
		s.WroteReg, s.Reg, s.RegVal = true, in.Dst, v
	case in.Op == isa.LD:
		addr := e.Reg(in.Src1) + uint64(in.Imm)
		v := e.Mem.Read(addr)
		e.setReg(in.Dst, v)
		s.IsLoad, s.Addr, s.MemVal = true, addr, v
		s.WroteReg, s.Reg, s.RegVal = true, in.Dst, v
	case in.Op == isa.ST:
		addr := e.Reg(in.Src1) + uint64(in.Imm)
		v := e.Reg(in.Src2)
		if e.hist != nil {
			e.hist.wr = append(e.hist.wr, histWrite{addr, e.Mem.Read(addr)})
		}
		e.Mem.Write(addr, v)
		s.IsStore, s.Addr, s.MemVal = true, addr, v
	case in.Op == isa.BR:
		s.Taken = in.Cond.Eval(e.Reg(in.Src1), e.Reg(in.Src2))
		if s.Taken {
			s.NextPC = in.Target
		}
	case in.Op == isa.JMP:
		s.NextPC = in.Target
	case in.Op == isa.JR:
		s.NextPC = e.Reg(in.Src1)
	case in.Op == isa.CALL:
		e.setReg(in.Dst, e.PC+1)
		s.WroteReg, s.Reg, s.RegVal = true, in.Dst, e.PC+1
		s.NextPC = in.Target
	case in.Op == isa.CALLR:
		target := e.Reg(in.Src1)
		e.setReg(in.Dst, e.PC+1)
		s.WroteReg, s.Reg, s.RegVal = true, in.Dst, e.PC+1
		s.NextPC = target
	case in.Op == isa.RET:
		s.NextPC = e.Reg(in.Src1)
	case in.Op == isa.HALT:
		s.Halted = true
		e.Halted = true
		s.NextPC = e.PC
	case in.Op == isa.NOP:
		// nothing
	default:
		return fmt.Errorf("emu: pc %d: unimplemented op %v", e.PC, in.Op)
	}

	e.PC = s.NextPC
	e.Count++
	if e.hist != nil {
		e.hist.recs = append(e.hist.recs, undo)
	}
	return nil
}

// Excursion speculatively executes from pc for up to max instructions
// without disturbing the emulator: registers are copied, stores land in
// a private overlay, and loads see the overlay first and committed
// memory second. fn receives each step's PC, next PC, and whether it
// was a load and from which address (what wrong-path cache warming
// reads); returning false stops the walk. The record is passed as
// scalars so no Step is built or escapes per wrong-path instruction.
// Execution also stops silently at a HALT, at any PC outside the code
// image, or on an op Step would reject — a wrong path may run anywhere,
// and the caller (wrong-path runahead warming) wants "stop", not an
// error. The emulator's own Regs, Mem, PC, and Count are untouched; the
// overlay's map is kept for the next excursion.
//
//dmp:hotpath
func (e *Emulator) Excursion(pc uint64, max int, fn func(pc, next uint64, load bool, addr uint64) bool) {
	regs := e.Regs
	regs[isa.Zero] = 0
	ov := e.ov
	clear(ov)
	for n := 0; n < max; n++ {
		if !e.Prog.InCode(pc) {
			return
		}
		in := &e.Prog.Code[pc]
		next, load, addr := pc+1, false, uint64(0)
		switch {
		case in.IsALU():
			regs[in.Dst] = isa.EvalALU(*in, regs[in.Src1], regs[in.Src2])
		case in.Op == isa.LD:
			addr = regs[in.Src1] + uint64(in.Imm)
			v, ok := ov[addr>>3]
			if !ok {
				v = e.Mem.Read(addr)
			}
			regs[in.Dst] = v
			load = true
		case in.Op == isa.ST:
			addr = regs[in.Src1] + uint64(in.Imm)
			if ov == nil {
				ov = make(map[uint64]uint64) //dmp:allow hotalloc -- once per emulator; later excursions clear and reuse it
				e.ov = ov
			}
			ov[addr>>3] = regs[in.Src2]
		case in.Op == isa.BR:
			if in.Cond.Eval(regs[in.Src1], regs[in.Src2]) {
				next = in.Target
			}
		case in.Op == isa.JMP:
			next = in.Target
		case in.Op == isa.JR:
			next = regs[in.Src1]
		case in.Op == isa.CALL:
			regs[in.Dst] = pc + 1
			next = in.Target
		case in.Op == isa.CALLR:
			next = regs[in.Src1]
			regs[in.Dst] = pc + 1
		case in.Op == isa.RET:
			next = regs[in.Src1]
		case in.Op == isa.NOP:
			// nothing
		default:
			return // HALT or unimplemented: the wrong path ends here
		}
		regs[isa.Zero] = 0
		if !fn(pc, next, load, addr) {
			return
		}
		pc = next
	}
}

// Run executes until HALT or until max instructions have executed (0
// means no limit). It returns the number of instructions executed.
func (e *Emulator) Run(max uint64) (uint64, error) {
	start := e.Count
	for !e.Halted {
		if max != 0 && e.Count-start >= max {
			break
		}
		if _, err := e.Step(); err != nil {
			return e.Count - start, err
		}
	}
	return e.Count - start, nil
}

// RunFunc executes until HALT or max instructions, invoking fn on every
// step. If fn returns false, execution stops early.
func (e *Emulator) RunFunc(max uint64, fn func(Step) bool) error {
	start := e.Count
	for !e.Halted {
		if max != 0 && e.Count-start >= max {
			return nil
		}
		s, err := e.Step()
		if err != nil {
			return err
		}
		if !fn(s) {
			return nil
		}
	}
	return nil
}
