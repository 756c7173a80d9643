package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEveryOpcodeHasAName(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		got, ok := OpByName[op.String()]
		if !ok {
			t.Errorf("mnemonic %q missing from OpByName", op.String())
			continue
		}
		if got != op {
			t.Errorf("OpByName[%q] = %v, want %v", op.String(), got, op)
		}
	}
	if len(OpByName) != NumOps {
		t.Errorf("OpByName has %d entries, want %d", len(OpByName), NumOps)
	}
}

func TestClassification(t *testing.T) {
	branches := []Op{OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpJal, OpJr}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
	}
	for _, op := range []Op{OpAdd, OpLd, OpSyscall, OpHalt, OpRdtsc} {
		if op.IsBranch() {
			t.Errorf("%v should not be a branch", op)
		}
	}

	stores := []Op{OpSt, OpStB, OpFSt, OpVSt}
	for _, op := range stores {
		if !op.IsStore() || op.AccessSize() == 0 {
			t.Errorf("%v should be a store and a memory access", op)
		}
	}
	loads := []Op{OpLd, OpLdB, OpFLd, OpVLd}
	for _, op := range loads {
		if op.IsStore() {
			t.Errorf("%v should not be a store", op)
		}
		if op.AccessSize() == 0 {
			t.Errorf("%v should be a memory access", op)
		}
	}
}

func TestAccessSize(t *testing.T) {
	cases := map[Op]int{
		OpLd: 8, OpSt: 8, OpFLd: 8, OpFSt: 8,
		OpLdB: 1, OpStB: 1,
		OpVLd: 32, OpVSt: 32,
		OpAdd: 0, OpBeq: 0, OpSyscall: 0,
	}
	for op, want := range cases {
		if got := op.AccessSize(); got != want {
			t.Errorf("%v.AccessSize() = %d, want %d", op, got, want)
		}
	}
}

func TestCostClassesAssigned(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		if op.Class() >= NumCostClasses {
			t.Errorf("%v has invalid cost class %d", op, op.Class())
		}
	}
	if OpLd.Class() != CostMem || OpVLd.Class() != CostMemVec {
		t.Error("memory cost classes misassigned")
	}
	if OpDiv.Class() != CostDiv || OpFDiv.Class() != CostFDiv {
		t.Error("divide cost classes misassigned")
	}
	if OpSyscall.Class() != CostSys {
		t.Error("syscall cost class misassigned")
	}
}

func TestValidateRegisterBounds(t *testing.T) {
	cases := []struct {
		ins  Instr
		ok   bool
		name string
	}{
		{Instr{Op: OpAdd, Rd: 15, Ra: 0, Rb: 3}, true, "gpr max"},
		{Instr{Op: OpAdd, Rd: 16}, false, "gpr overflow"},
		{Instr{Op: OpFAdd, Rd: 7, Ra: 7, Rb: 7}, true, "fpr max"},
		{Instr{Op: OpFAdd, Rd: 8}, false, "fpr overflow"},
		{Instr{Op: OpVAdd, Rd: 3, Ra: 3, Rb: 3}, true, "vr max"},
		{Instr{Op: OpVAdd, Rd: 4}, false, "vr overflow"},
		{Instr{Op: OpCvtIF, Rd: 7, Ra: 15}, true, "cvt mixes files"},
		{Instr{Op: OpCvtIF, Rd: 8, Ra: 0}, false, "cvt fpr overflow"},
		{Instr{Op: OpNop, Rd: 1}, false, "nop must have zero operands"},
		{Instr{Op: opCount}, false, "invalid opcode"},
	}
	for _, c := range cases {
		err := c.ins.Validate(-1)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate(%v) err=%v, want ok=%v", c.name, c.ins, err, c.ok)
		}
	}
}

func TestValidateBranchTargets(t *testing.T) {
	code := []Instr{
		{Op: OpMovI, Rd: 1, Imm: 5},
		{Op: OpJmp, Imm: 0},
		{Op: OpHalt},
	}
	if err := ValidateProgram(code); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	bad := []Instr{{Op: OpJmp, Imm: 7}}
	if err := ValidateProgram(bad); err == nil {
		t.Error("out-of-range branch target accepted")
	}
	neg := []Instr{{Op: OpBeq, Ra: 1, Rb: 2, Imm: -1}}
	if err := ValidateProgram(neg); err == nil {
		t.Error("negative branch target accepted")
	}
	// Jr targets a register, so no static target check applies.
	jr := []Instr{{Op: OpJr, Ra: 3}}
	if err := ValidateProgram(jr); err != nil {
		t.Errorf("jr rejected: %v", err)
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := map[string]Instr{
		"add x1, x2, x3":  {Op: OpAdd, Rd: 1, Ra: 2, Rb: 3},
		"movi x4, -7":     {Op: OpMovI, Rd: 4, Imm: -7},
		"ld x1, x2, 16":   {Op: OpLd, Rd: 1, Ra: 2, Imm: 16},
		"st x2, 8, x3":    {Op: OpSt, Ra: 2, Rb: 3, Imm: 8},
		"beq x1, x2, 42":  {Op: OpBeq, Ra: 1, Rb: 2, Imm: 42},
		"fadd f1, f2, f3": {Op: OpFAdd, Rd: 1, Ra: 2, Rb: 3},
		"vsplat v2, x5":   {Op: OpVSplat, Rd: 2, Ra: 5},
		"syscall":         {Op: OpSyscall},
		"mrs x3, 1":       {Op: OpMrs, Rd: 3, Imm: 1},
	}
	for want, ins := range cases {
		if got := ins.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", ins, got, want)
		}
	}
}

// TestValidatedInstrsNeverPanicInString is a property test: any instruction
// that passes validation must render without panicking or producing a
// placeholder.
func TestValidatedInstrsNeverPanicInString(t *testing.T) {
	f := func(op uint8, rd, ra, rb uint8, imm int64) bool {
		ins := Instr{Op: Op(op % uint8(NumOps)), Rd: rd % 16, Ra: ra % 16, Rb: rb % 16, Imm: imm}
		if ins.Validate(-1) != nil {
			return true // invalid instructions are out of scope
		}
		s := ins.String()
		return s != "" && !strings.Contains(s, "?")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
