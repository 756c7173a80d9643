package asm

import (
	"strings"
	"testing"

	"parallaft/internal/isa"
)

func TestAssembleBasics(t *testing.T) {
	src := `
; a comment line
start:  movi x1, 10      # trailing comment
        movi x2, 0x20
        movi x3, 'A'
loop:   addi x1, x1, -1
        bne  x1, x0, loop
        halt
.entry start
`
	p, err := Assemble("basics", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 6 {
		t.Fatalf("code length = %d, want 6", len(p.Code))
	}
	if p.Code[1].Imm != 0x20 || p.Code[2].Imm != 'A' {
		t.Errorf("hex/char immediates: %d, %d", p.Code[1].Imm, p.Code[2].Imm)
	}
	if p.Code[4].Op != isa.OpBne || p.Code[4].Imm != int64(p.Labels["loop"]) {
		t.Errorf("branch target: %+v", p.Code[4])
	}
	if p.Entry != p.Labels["start"] {
		t.Errorf("entry = %d", p.Entry)
	}
}

func TestDataDirectives(t *testing.T) {
	src := `
.word  vals 1 2 0xff
.float pi 3.25
.byte  raw 10 20 255
.ascii msg "hi\n"
.space scratch 64
	movi x1, =vals
	movi x2, =scratch
	halt
`
	p, err := Assemble("data", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"vals", "pi", "raw", "msg", "scratch"} {
		if _, ok := p.Symbols[sym]; !ok {
			t.Errorf("symbol %q missing", sym)
		}
	}
	if p.BSS < 64 {
		t.Errorf("bss = %d, want >= 64", p.BSS)
	}
	// scratch lives after the initialised data
	if p.Symbols["scratch"] < DataBase+uint64(len(p.Data)) {
		t.Error("space symbol inside initialised data")
	}
	if p.Code[0].Imm != int64(p.Symbols["vals"]) {
		t.Error("=symbol immediate not resolved")
	}
	// msg content with the escape processed
	off := p.Symbols["msg"] - DataBase
	if string(p.Data[off:off+3]) != "hi\n" {
		t.Errorf("ascii content = %q", p.Data[off:off+3])
	}
}

func TestAssembleErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"\n\nbogus x1, x2\n", ":3:"},
		{"movi x99, 1\n", "bad register"},
		{"add x1, x2\n", "missing operand"},
		{"add x1, x2, x3, x4\n", "too many operands"},
		{"movi x1, zzz\n", "bad integer"},
		{".word\n", "wants a name"},
		{".space s -1\n", "bad .space size"},
		{".unknown x\n", "unknown directive"},
		{"ld f1, x2, 0\n", "expected x-register"},
		{"jmp nowhere\nhalt\n", "undefined label"},
	}
	for _, c := range cases {
		_, err := Assemble("err", c.src)
		if err == nil {
			t.Errorf("source %q assembled without error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("error %q does not mention %q", err, c.frag)
		}
	}
}

func TestDuplicateLabelRejected(t *testing.T) {
	if _, err := Assemble("dup", "a: nop\na: nop\n"); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := Assemble("dupsym", ".word v 1\n.word v 2\nnop\n"); err == nil {
		t.Error("duplicate symbol accepted")
	}
}

func TestEntryValidation(t *testing.T) {
	if _, err := Assemble("e", "nop\n.entry missing\n"); err == nil {
		t.Error("undefined .entry accepted")
	}
	if _, err := Assemble("empty", "; nothing\n"); err == nil {
		t.Error("empty program accepted")
	}
}

func TestMultipleLabelsPerLine(t *testing.T) {
	p, err := Assemble("labels", "a: b: nop\nc: jmp a\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["a"] != 0 || p.Labels["b"] != 0 || p.Labels["c"] != 1 {
		t.Errorf("labels = %v", p.Labels)
	}
}

func TestRoundTripThroughDisassembler(t *testing.T) {
	src := `
.word  table 5 6 7
.ascii name "x"
start:
	movi x1, =table
	ld   x2, x1, 8
	st   x1, 16, x2
	fmovi f0, 1.5
	fadd  f1, f0, f0
	vsplat v0, x2
	vst   x1, 0, v0
	beq  x2, x3, start
	rdtsc x4
	mrs  x5, 1
	syscall
	halt
.entry start
`
	p1, err := Assemble("rt", src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble("rt2", p1.Disassemble())
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, p1.Disassemble())
	}
	if len(p1.Code) != len(p2.Code) {
		t.Fatalf("code length changed: %d -> %d", len(p1.Code), len(p2.Code))
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Errorf("instr %d: %v -> %v", i, p1.Code[i], p2.Code[i])
		}
	}
}

func TestBuilderFixups(t *testing.T) {
	b := NewBuilder("fix")
	b.Jmp("end") // forward reference
	b.Label("mid")
	b.Nop()
	b.Label("end")
	b.LabelAddr(1, "mid")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != int64(p.Labels["end"]) {
		t.Error("forward branch not resolved")
	}
	if p.Code[2].Imm != int64(p.Labels["mid"]) {
		t.Error("LabelAddr not resolved")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("undefined label accepted by builder")
	}

	b2 := NewBuilder("badsym")
	b2.Addr(1, "ghost")
	b2.Halt()
	if _, err := b2.Build(); err == nil {
		t.Error("undefined symbol accepted by builder")
	}

	b3 := NewBuilder("dup")
	b3.Label("x")
	b3.Label("x")
	b3.Halt()
	if _, err := b3.Build(); err == nil {
		t.Error("duplicate label accepted by builder")
	}
}

func TestBuilderDataAlignment(t *testing.T) {
	b := NewBuilder("align")
	b.Bytes("odd", []byte{1, 2, 3})
	b.Words("w", 42)
	b.Floats("f", 2.5)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["w"]%8 != 0 || p.Symbols["f"]%8 != 0 {
		t.Errorf("word/float symbols unaligned: %#x %#x", p.Symbols["w"], p.Symbols["f"])
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on error")
		}
	}()
	b := NewBuilder("p")
	b.Jmp("missing")
	b.MustBuild()
}

func TestProgramValidate(t *testing.T) {
	p := &Program{Name: "v", Code: []isa.Instr{{Op: isa.OpHalt}}, Entry: 5}
	if err := p.Validate(); err == nil {
		t.Error("entry outside code accepted")
	}
}

func TestNegativeAndHugeImmediates(t *testing.T) {
	p, err := Assemble("imm", "movi x1, -9223372036854775808\nmovi x2, 0xffffffffffffffff\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != -9223372036854775808 {
		t.Errorf("min int64 = %d", p.Code[0].Imm)
	}
	if uint64(p.Code[1].Imm) != 0xffffffffffffffff {
		t.Errorf("max uint64 = %#x", uint64(p.Code[1].Imm))
	}
}
