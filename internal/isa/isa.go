// Package isa defines the guest instruction set architecture interpreted by
// the simulated processor cores.
//
// The guest ISA is a 64-bit RISC-like register machine, deliberately small
// but rich enough to host the behaviours Parallaft must record and replay:
// branches (counted by the simulated PMU), loads and stores (which hit the
// paged, copy-on-write memory subsystem), syscalls, and nondeterministic
// instructions (Rdtsc, Mrs) whose results differ between runs or between
// heterogeneous cores.
//
// Code is word-addressed: the program counter indexes into a []Instr, and
// branch targets are absolute instruction indices resolved by the assembler.
// Data memory is byte-addressed through the mem package.
package isa

import (
	"fmt"
	"math"
	"strconv"
)

// Architectural parameters of the guest machine.
const (
	NumGPR  = 16 // general-purpose registers x0..x15
	NumFPR  = 8  // floating-point registers f0..f7
	NumVR   = 4  // vector registers v0..v3
	VLanes  = 4  // 64-bit lanes per vector register
	WordLen = 8  // bytes per machine word
)

// Conventional register roles used by the assembler and the OS ABI.
const (
	RegZero = 0  // x0 doubles as the syscall number / return value register
	RegSP   = 14 // stack pointer by convention
	RegLR   = 15 // link register written by Jal
)

// Op enumerates guest opcodes.
type Op uint8

// Opcode space, grouped by class. The groups matter: CostClass, IsBranch and
// friends switch on contiguous ranges.
const (
	// Miscellaneous.
	OpNop Op = iota
	OpHalt

	// Integer ALU, register-register.
	OpMov
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSlt // set-less-than: Rd = (Ra < Rb) ? 1 : 0 (signed)

	// Integer ALU, immediate.
	OpMovI
	OpAddI
	OpMulI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI
	OpSltI

	// Floating point (float64 registers).
	OpFMov
	OpFMovI // Imm carries math.Float64bits of the constant
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt
	OpCvtIF  // Fd = float64(Xa)
	OpCvtFI  // Xd = int64(Fa)
	OpFCmpLt // Xd = (Fa < Fb) ? 1 : 0

	// Vector (VLanes x 64-bit integer lanes).
	OpVAdd
	OpVXor
	OpVMul
	OpVSplat // broadcast Xa into all lanes of Vd

	// Memory. Effective address is Xa + Imm.
	OpLd  // Xd = *(u64*)(Xa+Imm)
	OpSt  // *(u64*)(Xa+Imm) = Xb
	OpLdB // Xd = zero-extended byte
	OpStB // store low byte of Xb
	OpFLd // Fd = *(f64*)(Xa+Imm)
	OpFSt // *(f64*)(Xa+Imm) = Fb
	OpVLd // Vd = 32 bytes at Xa+Imm
	OpVSt // store 32 bytes of Vb

	// Control transfer. All of these increment the retired-branch counter.
	OpBeq // if Xa == Xb goto Imm
	OpBne
	OpBlt // signed
	OpBge // signed
	OpJmp // goto Imm
	OpJal // x15 = PC+1; goto Imm
	OpJr  // goto Xa

	// System.
	OpSyscall // number in x0, args in x1..x5, result in x0
	OpRdtsc   // Xd = timestamp counter (nondeterministic; trapped)
	OpMrs     // Xd = system register Imm (nondeterministic; trapped)

	opCount
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// SysReg identifiers for the Mrs instruction, mirroring the AArch64
// registers Parallaft must virtualise (§4.3.4).
const (
	SysRegMIDR   = 0 // core identification: differs between big and little cores
	SysRegCNTVCT = 1 // virtual counter: differs between any two reads
)

// Instr is a decoded guest instruction. Rd/Ra/Rb index the register file
// appropriate to the opcode class; Imm is an immediate, branch target,
// address offset, or float bit pattern depending on the opcode.
type Instr struct {
	Op  Op
	Rd  uint8
	Ra  uint8
	Rb  uint8
	Imm int64
}

// CostClass buckets opcodes by base execution cost. The machine model maps
// each class to a per-core-type cycle count; memory classes additionally pay
// the cache hierarchy's access latency.
type CostClass uint8

const (
	CostSimple CostClass = iota // ALU, moves, branches
	CostMul
	CostDiv
	CostFP
	CostFDiv
	CostVec
	CostMem    // scalar load/store
	CostMemVec // vector load/store
	CostSys    // syscall, trapped instructions
	NumCostClasses
)

var costClassOf = [NumOps]CostClass{
	OpNop: CostSimple, OpHalt: CostSimple,
	OpMov: CostSimple, OpAdd: CostSimple, OpSub: CostSimple,
	OpMul: CostMul, OpDiv: CostDiv, OpRem: CostDiv,
	OpAnd: CostSimple, OpOr: CostSimple, OpXor: CostSimple,
	OpShl: CostSimple, OpShr: CostSimple, OpSlt: CostSimple,
	OpMovI: CostSimple, OpAddI: CostSimple, OpMulI: CostMul,
	OpAndI: CostSimple, OpOrI: CostSimple, OpXorI: CostSimple,
	OpShlI: CostSimple, OpShrI: CostSimple, OpSltI: CostSimple,
	OpFMov: CostFP, OpFMovI: CostFP, OpFAdd: CostFP, OpFSub: CostFP,
	OpFMul: CostFP, OpFDiv: CostFDiv, OpFSqrt: CostFDiv,
	OpCvtIF: CostFP, OpCvtFI: CostFP, OpFCmpLt: CostFP,
	OpVAdd: CostVec, OpVXor: CostVec, OpVMul: CostVec, OpVSplat: CostVec,
	OpLd: CostMem, OpSt: CostMem, OpLdB: CostMem, OpStB: CostMem,
	OpFLd: CostMem, OpFSt: CostMem,
	OpVLd: CostMemVec, OpVSt: CostMemVec,
	OpBeq: CostSimple, OpBne: CostSimple, OpBlt: CostSimple, OpBge: CostSimple,
	OpJmp: CostSimple, OpJal: CostSimple, OpJr: CostSimple,
	OpSyscall: CostSys, OpRdtsc: CostSys, OpMrs: CostSys,
}

// Class returns the opcode's cost class.
func (o Op) Class() CostClass {
	if int(o) >= NumOps {
		return CostSimple
	}
	return costClassOf[o]
}

// IsBranch reports whether the opcode is a control-transfer instruction.
// Every retired branch instruction — taken or not — increments the simulated
// PMU's branch counter, matching the "all branches retired" event the paper
// relies on (§4.2.1).
func (o Op) IsBranch() bool {
	return o >= OpBeq && o <= OpJr
}

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool {
	switch o {
	case OpSt, OpStB, OpFSt, OpVSt:
		return true
	}
	return false
}

// AccessSize returns the bytes of data memory touched by a memory opcode,
// and 0 for non-memory opcodes.
func (o Op) AccessSize() int {
	switch o {
	case OpLd, OpSt, OpFLd, OpFSt:
		return WordLen
	case OpLdB, OpStB:
		return 1
	case OpVLd, OpVSt:
		return VLanes * WordLen
	}
	return 0
}

var opNames = [NumOps]string{
	OpNop: "nop", OpHalt: "halt",
	OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpShr: "shr", OpSlt: "slt",
	OpMovI: "movi", OpAddI: "addi", OpMulI: "muli", OpAndI: "andi",
	OpOrI: "ori", OpXorI: "xori", OpShlI: "shli", OpShrI: "shri", OpSltI: "slti",
	OpFMov: "fmov", OpFMovI: "fmovi", OpFAdd: "fadd", OpFSub: "fsub",
	OpFMul: "fmul", OpFDiv: "fdiv", OpFSqrt: "fsqrt",
	OpCvtIF: "cvtif", OpCvtFI: "cvtfi", OpFCmpLt: "fcmplt",
	OpVAdd: "vadd", OpVXor: "vxor", OpVMul: "vmul", OpVSplat: "vsplat",
	OpLd: "ld", OpSt: "st", OpLdB: "ldb", OpStB: "stb",
	OpFLd: "fld", OpFSt: "fst", OpVLd: "vld", OpVSt: "vst",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpJmp: "jmp", OpJal: "jal", OpJr: "jr",
	OpSyscall: "syscall", OpRdtsc: "rdtsc", OpMrs: "mrs",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < NumOps && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpByName maps assembler mnemonics back to opcodes.
var OpByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// regKind describes which register file each operand of an opcode addresses,
// for validation and disassembly.
type regKind uint8

const (
	rkNone regKind = iota
	rkGPR
	rkFPR
	rkVR
)

type operandSpec struct {
	rd, ra, rb regKind
	hasImm     bool
}

var operandSpecs = [NumOps]operandSpec{
	OpNop:  {},
	OpHalt: {},
	OpMov:  {rd: rkGPR, ra: rkGPR}, OpAdd: {rd: rkGPR, ra: rkGPR, rb: rkGPR},
	OpSub: {rd: rkGPR, ra: rkGPR, rb: rkGPR}, OpMul: {rd: rkGPR, ra: rkGPR, rb: rkGPR},
	OpDiv: {rd: rkGPR, ra: rkGPR, rb: rkGPR}, OpRem: {rd: rkGPR, ra: rkGPR, rb: rkGPR},
	OpAnd: {rd: rkGPR, ra: rkGPR, rb: rkGPR}, OpOr: {rd: rkGPR, ra: rkGPR, rb: rkGPR},
	OpXor: {rd: rkGPR, ra: rkGPR, rb: rkGPR}, OpShl: {rd: rkGPR, ra: rkGPR, rb: rkGPR},
	OpShr: {rd: rkGPR, ra: rkGPR, rb: rkGPR}, OpSlt: {rd: rkGPR, ra: rkGPR, rb: rkGPR},
	OpMovI: {rd: rkGPR, hasImm: true}, OpAddI: {rd: rkGPR, ra: rkGPR, hasImm: true},
	OpMulI: {rd: rkGPR, ra: rkGPR, hasImm: true}, OpAndI: {rd: rkGPR, ra: rkGPR, hasImm: true},
	OpOrI: {rd: rkGPR, ra: rkGPR, hasImm: true}, OpXorI: {rd: rkGPR, ra: rkGPR, hasImm: true},
	OpShlI: {rd: rkGPR, ra: rkGPR, hasImm: true}, OpShrI: {rd: rkGPR, ra: rkGPR, hasImm: true},
	OpSltI: {rd: rkGPR, ra: rkGPR, hasImm: true},
	OpFMov: {rd: rkFPR, ra: rkFPR}, OpFMovI: {rd: rkFPR, hasImm: true},
	OpFAdd: {rd: rkFPR, ra: rkFPR, rb: rkFPR}, OpFSub: {rd: rkFPR, ra: rkFPR, rb: rkFPR},
	OpFMul: {rd: rkFPR, ra: rkFPR, rb: rkFPR}, OpFDiv: {rd: rkFPR, ra: rkFPR, rb: rkFPR},
	OpFSqrt: {rd: rkFPR, ra: rkFPR},
	OpCvtIF: {rd: rkFPR, ra: rkGPR}, OpCvtFI: {rd: rkGPR, ra: rkFPR},
	OpFCmpLt: {rd: rkGPR, ra: rkFPR, rb: rkFPR},
	OpVAdd:   {rd: rkVR, ra: rkVR, rb: rkVR}, OpVXor: {rd: rkVR, ra: rkVR, rb: rkVR},
	OpVMul: {rd: rkVR, ra: rkVR, rb: rkVR}, OpVSplat: {rd: rkVR, ra: rkGPR},
	OpLd:  {rd: rkGPR, ra: rkGPR, hasImm: true},
	OpSt:  {ra: rkGPR, rb: rkGPR, hasImm: true},
	OpLdB: {rd: rkGPR, ra: rkGPR, hasImm: true},
	OpStB: {ra: rkGPR, rb: rkGPR, hasImm: true},
	OpFLd: {rd: rkFPR, ra: rkGPR, hasImm: true},
	OpFSt: {ra: rkGPR, rb: rkFPR, hasImm: true},
	OpVLd: {rd: rkVR, ra: rkGPR, hasImm: true},
	OpVSt: {ra: rkGPR, rb: rkVR, hasImm: true},
	OpBeq: {ra: rkGPR, rb: rkGPR, hasImm: true}, OpBne: {ra: rkGPR, rb: rkGPR, hasImm: true},
	OpBlt: {ra: rkGPR, rb: rkGPR, hasImm: true}, OpBge: {ra: rkGPR, rb: rkGPR, hasImm: true},
	OpJmp: {hasImm: true}, OpJal: {hasImm: true}, OpJr: {ra: rkGPR},
	OpSyscall: {},
	OpRdtsc:   {rd: rkGPR},
	OpMrs:     {rd: rkGPR, hasImm: true},
}

func regLimit(k regKind) uint8 {
	switch k {
	case rkGPR:
		return NumGPR
	case rkFPR:
		return NumFPR
	case rkVR:
		return NumVR
	}
	return 1 // unused operands must be zero
}

func checkReg(k regKind, r uint8, name string, i Instr) error {
	if r >= regLimit(k) {
		return fmt.Errorf("isa: %s: %s operand %d out of range", i.Op, name, r)
	}
	return nil
}

// Validate checks that the instruction's operands are in range for its
// opcode. Branch targets are checked against codeLen (pass a negative
// codeLen to skip target checking).
func (i Instr) Validate(codeLen int) error {
	if int(i.Op) >= NumOps {
		return fmt.Errorf("isa: invalid opcode %d", i.Op)
	}
	spec := operandSpecs[i.Op]
	if err := checkReg(spec.rd, i.Rd, "rd", i); err != nil {
		return err
	}
	if err := checkReg(spec.ra, i.Ra, "ra", i); err != nil {
		return err
	}
	if err := checkReg(spec.rb, i.Rb, "rb", i); err != nil {
		return err
	}
	if codeLen >= 0 && i.Op.IsBranch() && i.Op != OpJr {
		if i.Imm < 0 || i.Imm >= int64(codeLen) {
			return fmt.Errorf("isa: %s: branch target %d outside code [0,%d)", i.Op, i.Imm, codeLen)
		}
	}
	return nil
}

// ValidateProgram validates every instruction in a program.
func ValidateProgram(code []Instr) error {
	for pc, ins := range code {
		if err := ins.Validate(len(code)); err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
	}
	return nil
}

func regName(k regKind, r uint8) string {
	switch k {
	case rkGPR:
		return fmt.Sprintf("x%d", r)
	case rkFPR:
		return fmt.Sprintf("f%d", r)
	case rkVR:
		return fmt.Sprintf("v%d", r)
	}
	return "?"
}

// String disassembles the instruction into assembler syntax. Stores render
// as "st base, offset, src", matching the order the assembler parses.
func (i Instr) String() string {
	if int(i.Op) >= NumOps {
		return fmt.Sprintf("op(%d)", uint8(i.Op))
	}
	spec := operandSpecs[i.Op]
	out := i.Op.String()
	sep := " "
	emit := func(s string) {
		out += sep + s
		sep = ", "
	}
	if i.Op.IsStore() {
		emit(regName(spec.ra, i.Ra))
		emit(fmt.Sprintf("%d", i.Imm))
		emit(regName(spec.rb, i.Rb))
		return out
	}
	if i.Op == OpFMovI {
		// The immediate carries a float bit pattern; render it as the
		// float the assembler parses.
		emit(regName(spec.rd, i.Rd))
		emit(strconv.FormatFloat(math.Float64frombits(uint64(i.Imm)), 'g', -1, 64))
		return out
	}
	if spec.rd != rkNone {
		emit(regName(spec.rd, i.Rd))
	}
	if spec.ra != rkNone {
		emit(regName(spec.ra, i.Ra))
	}
	if spec.rb != rkNone {
		emit(regName(spec.rb, i.Rb))
	}
	if spec.hasImm {
		emit(fmt.Sprintf("%d", i.Imm))
	}
	return out
}
