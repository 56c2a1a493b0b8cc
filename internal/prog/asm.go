package prog

import (
	"fmt"
	"strconv"
	"strings"

	"dmp/internal/isa"
)

// Assemble parses assembly text into a Program. The syntax mirrors the
// disassembly format:
//
//	; comment, or # comment
//	start:
//	    li   r1, 100
//	    add  r2, r1, r3
//	    ld   r4, 8(r2)
//	    st   r4, 0(r2)
//	    br.lt r1, r2, loop
//	    jmp  start
//	    call fn
//	    callr r5
//	    jr   r5
//	    ret
//	    halt
//	.word 4096 42        ; initial data memory: address value
//	.entry start         ; entry label (default: first instruction)
//
// Register names are r0..r31, zero, sp and lr. Branch/jump targets must be
// labels. Immediates accept decimal and 0x-hex. Every malformed input,
// including a duplicate or undefined label, is an "asm: ..." error,
// never a panic.
func Assemble(src string) (*Program, error) {
	b := NewBuilder()
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := asmLine(b, line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", ln+1, err)
		}
	}
	// Builder panics on an undefined label (a generator bug); in source
	// text it is an input error, so check before Build.
	for _, f := range b.fixups {
		if _, ok := b.p.Labels[f.label]; !ok {
			if f.pc == ^uint64(0) {
				return nil, fmt.Errorf("asm: .entry label %q is not defined", f.label)
			}
			return nil, fmt.Errorf("asm: undefined label %q (instruction %d)", f.label, f.pc)
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return p, nil
}

// MustAssemble is Assemble that panics on error, for tests.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func asmLine(b *Builder, line string) error {
	for strings.Contains(line, ":") {
		i := strings.Index(line, ":")
		label := strings.TrimSpace(line[:i])
		if label == "" || strings.ContainsAny(label, " \t,") {
			return fmt.Errorf("bad label %q", label)
		}
		if _, dup := b.p.Labels[label]; dup {
			return fmt.Errorf("duplicate label %q", label)
		}
		b.Label(label)
		line = strings.TrimSpace(line[i+1:])
	}
	if line == "" {
		return nil
	}
	mn, rest, _ := strings.Cut(line, " ")
	mn = strings.ToLower(strings.TrimSpace(mn))
	args := splitArgs(rest)

	switch {
	case mn == ".word":
		args = strings.Fields(strings.ReplaceAll(rest, ",", " "))
		if len(args) != 2 {
			return fmt.Errorf(".word wants addr value")
		}
		addr, err := parseImm(args[0])
		if err != nil {
			return err
		}
		val, err := parseImm(args[1])
		if err != nil {
			return err
		}
		b.Word(uint64(addr), uint64(val))
		return nil
	case mn == ".entry":
		if len(args) != 1 {
			return fmt.Errorf(".entry wants a label")
		}
		b.Entry(args[0])
		return nil
	}

	op3 := map[string]isa.Op{
		"add": isa.ADD, "sub": isa.SUB, "and": isa.AND, "or": isa.OR,
		"xor": isa.XOR, "shl": isa.SHL, "shr": isa.SHR, "mul": isa.MUL,
		"div": isa.DIV, "slt": isa.SLT, "sltu": isa.SLTU,
	}
	opI := map[string]isa.Op{
		"addi": isa.ADDI, "subi": isa.SUBI, "andi": isa.ANDI, "ori": isa.ORI,
		"xori": isa.XORI, "shli": isa.SHLI, "shri": isa.SHRI, "muli": isa.MULI,
		"slti": isa.SLTI, "sltui": isa.SLTUI,
	}

	switch {
	case op3[mn] != 0:
		d, s1, s2, err := regs3(args)
		if err != nil {
			return err
		}
		b.Op3(op3[mn], d, s1, s2)
	case opI[mn] != 0:
		if len(args) != 3 {
			return fmt.Errorf("%s wants 3 operands", mn)
		}
		d, err := parseReg(args[0])
		if err != nil {
			return err
		}
		s, err := parseReg(args[1])
		if err != nil {
			return err
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return err
		}
		b.OpI(opI[mn], d, s, imm)
	case mn == "li":
		if len(args) != 2 {
			return fmt.Errorf("li wants 2 operands")
		}
		d, err := parseReg(args[0])
		if err != nil {
			return err
		}
		imm, err := parseImm(args[1])
		if err != nil {
			return err
		}
		b.Li(d, imm)
	case mn == "mov":
		if len(args) != 2 {
			return fmt.Errorf("mov wants 2 operands")
		}
		d, err := parseReg(args[0])
		if err != nil {
			return err
		}
		s, err := parseReg(args[1])
		if err != nil {
			return err
		}
		b.Mov(d, s)
	case mn == "ld", mn == "st":
		if len(args) != 2 {
			return fmt.Errorf("%s wants reg, disp(base)", mn)
		}
		r, err := parseReg(args[0])
		if err != nil {
			return err
		}
		disp, base, err := parseMem(args[1])
		if err != nil {
			return err
		}
		if mn == "ld" {
			b.Ld(r, base, disp)
		} else {
			b.St(r, base, disp)
		}
	case strings.HasPrefix(mn, "br."):
		cond, err := parseCond(mn[3:])
		if err != nil {
			return err
		}
		if len(args) != 3 {
			return fmt.Errorf("br wants 3 operands")
		}
		s1, err := parseReg(args[0])
		if err != nil {
			return err
		}
		s2, err := parseReg(args[1])
		if err != nil {
			return err
		}
		b.Br(cond, s1, s2, args[2])
	case mn == "jmp":
		if len(args) != 1 {
			return fmt.Errorf("jmp wants a label")
		}
		b.Jmp(args[0])
	case mn == "jr":
		if len(args) != 1 {
			return fmt.Errorf("jr wants a register")
		}
		s, err := parseReg(args[0])
		if err != nil {
			return err
		}
		b.Jr(s)
	case mn == "call":
		if len(args) != 1 {
			return fmt.Errorf("call wants a label")
		}
		b.Call(args[0])
	case mn == "callr":
		if len(args) != 1 {
			return fmt.Errorf("callr wants a register")
		}
		s, err := parseReg(args[0])
		if err != nil {
			return err
		}
		b.Callr(s)
	case mn == "ret":
		b.Ret()
	case mn == "nop":
		b.Nop()
	case mn == "halt":
		b.Halt()
	default:
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	return nil
}

func splitArgs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}

func regs3(args []string) (d, s1, s2 isa.Reg, err error) {
	if len(args) != 3 {
		return 0, 0, 0, fmt.Errorf("want 3 register operands")
	}
	if d, err = parseReg(args[0]); err != nil {
		return
	}
	if s1, err = parseReg(args[1]); err != nil {
		return
	}
	s2, err = parseReg(args[2])
	return
}

func parseReg(s string) (isa.Reg, error) {
	switch strings.ToLower(s) {
	case "zero":
		return isa.Zero, nil
	case "sp":
		return isa.SP, nil
	case "lr":
		return isa.LR, nil
	}
	if len(s) >= 2 && (s[0] == 'r' || s[0] == 'R') {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return isa.Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow full-range unsigned literals too.
		u, uerr := strconv.ParseUint(s, 0, 64)
		if uerr != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		return int64(u), nil
	}
	return v, nil
}

// parseMem parses "disp(base)".
func parseMem(s string) (int64, isa.Reg, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	disp := int64(0)
	if open > 0 {
		var err error
		if disp, err = parseImm(s[:open]); err != nil {
			return 0, 0, err
		}
	}
	base, err := parseReg(s[open+1 : len(s)-1])
	return disp, base, err
}

func parseCond(s string) (isa.Cond, error) {
	switch s {
	case "eq":
		return isa.EQ, nil
	case "ne":
		return isa.NE, nil
	case "lt":
		return isa.LT, nil
	case "ge":
		return isa.GE, nil
	case "le":
		return isa.LE, nil
	case "gt":
		return isa.GT, nil
	}
	return 0, fmt.Errorf("bad condition %q", s)
}
