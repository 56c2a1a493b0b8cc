package prog

import (
	"strings"
	"testing"

	"dmp/internal/isa"
)

const asmSample = `
; a small program exercising most syntax
.entry start
start:
    li   r1, 10
    li   r2, 0x20       # hex immediate
loop:
    addi r2, r2, -1
    ld   r3, 8(r2)
    st   r3, (r2)
    br.gt r2, zero, loop
    call fn
    jmp  end
fn:
    mov  r4, r1
    ret
end:
    halt
.word 0x1000 42
`

func TestAssembleSample(t *testing.T) {
	p, err := Assemble(asmSample)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.PC("start") {
		t.Errorf("entry = %d, want %d", p.Entry, p.PC("start"))
	}
	if p.Word(0x1000) != 42 {
		t.Errorf("data word = %d", p.Word(0x1000))
	}
	br := p.Code[p.PC("loop")+3]
	if br.Op != isa.BR || br.Cond != isa.GT || br.Target != p.PC("loop") {
		t.Errorf("branch = %v", br)
	}
	ld := p.Code[p.PC("loop")+1]
	if ld.Op != isa.LD || ld.Imm != 8 || ld.Src1 != 2 {
		t.Errorf("ld = %v", ld)
	}
	st := p.Code[p.PC("loop")+2]
	if st.Op != isa.ST || st.Imm != 0 || st.Src2 != 3 {
		t.Errorf("st = %v", st)
	}
	call := p.Code[p.PC("loop")+4]
	if call.Op != isa.CALL || call.Target != p.PC("fn") || call.Dst != isa.LR {
		t.Errorf("call = %v", call)
	}
	neg := p.Code[p.PC("loop")]
	if neg.Op != isa.ADDI || neg.Imm != -1 {
		t.Errorf("addi = %v", neg)
	}
	hex := p.Code[p.PC("start")+1]
	if hex.Imm != 0x20 {
		t.Errorf("hex imm = %d", hex.Imm)
	}
}

func TestAssembleAllALUOps(t *testing.T) {
	src := `
    add r1, r2, r3
    sub r1, r2, r3
    and r1, r2, r3
    or r1, r2, r3
    xor r1, r2, r3
    shl r1, r2, r3
    shr r1, r2, r3
    mul r1, r2, r3
    div r1, r2, r3
    slt r1, r2, r3
    sltu r1, r2, r3
    addi r1, r2, 1
    subi r1, r2, 1
    andi r1, r2, 1
    ori r1, r2, 1
    xori r1, r2, 1
    shli r1, r2, 1
    shri r1, r2, 1
    muli r1, r2, 1
    slti r1, r2, 1
    sltui r1, r2, 1
    jr r5
    callr r5
    nop
    halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []isa.Op{
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.MUL, isa.DIV, isa.SLT, isa.SLTU,
		isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI,
		isa.SHRI, isa.MULI, isa.SLTI, isa.SLTUI,
		isa.JR, isa.CALLR, isa.NOP, isa.HALT,
	}
	if p.Len() != len(wantOps) {
		t.Fatalf("len = %d, want %d", p.Len(), len(wantOps))
	}
	for i, op := range wantOps {
		if p.Code[i].Op != op {
			t.Errorf("inst %d op = %v, want %v", i, p.Code[i].Op, op)
		}
	}
}

func TestAssembleAllConds(t *testing.T) {
	src := `
x:  br.eq r1, r2, x
    br.ne r1, r2, x
    br.lt r1, r2, x
    br.ge r1, r2, x
    br.le r1, r2, x
    br.gt r1, r2, x
    halt`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Cond{isa.EQ, isa.NE, isa.LT, isa.GE, isa.LE, isa.GT}
	for i, c := range want {
		if p.Code[i].Cond != c {
			t.Errorf("inst %d cond = %v, want %v", i, p.Code[i].Cond, c)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frob r1, r2, r3\nhalt",    // unknown mnemonic
		"add r1, r2\nhalt",         // wrong arity
		"addi r1, r2, xyz\nhalt",   // bad immediate
		"ld r1, r2\nhalt",          // bad mem operand
		"br.zz r1, r2, x\nx: halt", // bad condition
		"add r99, r1, r2\nhalt",    // bad register
		".word 1\nhalt",            // .word arity
		"jmp nowhere",              // undefined label
		"Br.lt r0,r0,0",            // undefined label (found by FuzzAssemble)
		"x:x:",                     // duplicate label
		".entry nowhere\nhalt",     // .entry of a missing label
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil || !strings.HasPrefix(err.Error(), "asm: ") {
			t.Errorf("Assemble(%q) = %v, want an asm: error", src, err)
		}
	}
}

// FuzzAssemble feeds arbitrary source text to the assembler: it must
// never panic, and any program it accepts must pass Validate.
func FuzzAssemble(f *testing.F) {
	f.Add(asmSample)
	f.Add("x: li r1, 1\n y: halt")
	f.Add("x:x:")
	f.Add(".entry nowhere\nhalt")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Assemble(%q) accepted a program that fails Validate: %v", src, err)
		}
	})
}

func TestAssembleDisassembleStable(t *testing.T) {
	p := MustAssemble(asmSample)
	dis := p.Disassemble()
	for _, want := range []string{"start:", "loop:", "fn:", "end:", "halt"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestAssembleLabelOnSameLine(t *testing.T) {
	p := MustAssemble("x: li r1, 1\n y: halt")
	if p.PC("x") != 0 || p.PC("y") != 1 {
		t.Errorf("labels: x=%d y=%d", p.PC("x"), p.PC("y"))
	}
}

func TestAssembleSPAndLRNames(t *testing.T) {
	p := MustAssemble("addi sp, sp, -8\n st lr, (sp)\n halt")
	if p.Code[0].Dst != isa.SP || p.Code[0].Src1 != isa.SP {
		t.Errorf("sp parse: %v", p.Code[0])
	}
	if p.Code[1].Src2 != isa.LR {
		t.Errorf("lr parse: %v", p.Code[1])
	}
}
