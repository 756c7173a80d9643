package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"parallaft/internal/isa"
)

// Assemble parses guest assembly text into a Program. The syntax:
//
//	; comment (also #)
//	label:                     ; code label
//	    movi x1, 42            ; decimal, 0x hex, or 'c' char immediates
//	    movi x2, =buf          ; address of data symbol
//	    ld   x3, x2, 8         ; loads/stores: reg, base, offset
//	    beq  x1, x3, label     ; branch targets are labels
//	    fmovi f0, 1.5          ; float immediates on fmovi
//	    syscall
//	    halt
//	.word  name v1 v2 ...      ; 64-bit data words
//	.float name v1 v2 ...      ; float64 data
//	.byte  name v1 v2 ...      ; bytes
//	.ascii name "text"         ; string bytes
//	.space name n              ; n zero bytes in BSS
//	.entry label               ; start execution at label (default: index 0)
//
// Operands are comma- or whitespace-separated. Errors carry line numbers.
func Assemble(name, src string) (*Program, error) {
	a := &assembler{b: NewBuilder(name)}
	for i, raw := range strings.Split(src, "\n") {
		if err := a.line(raw); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, i+1, err)
		}
	}
	p, err := a.b.Build()
	if err != nil {
		return nil, err
	}
	if a.entryLabel != "" {
		pc, ok := p.Labels[a.entryLabel]
		if !ok {
			return nil, fmt.Errorf("%s: .entry: undefined label %q", name, a.entryLabel)
		}
		p.Entry = pc
	}
	return p, nil
}

type assembler struct {
	b          *Builder
	entryLabel string
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case ';', '#':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

// tokenize splits on whitespace and commas, keeping quoted strings intact.
func tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	inStr := false
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inStr = !inStr
			cur.WriteByte(c)
		case !inStr && (c == ' ' || c == '\t' || c == ','):
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return toks
}

func (a *assembler) line(raw string) error {
	s := strings.TrimSpace(stripComment(raw))
	if s == "" {
		return nil
	}

	// One or more leading "label:" prefixes.
	for {
		idx := strings.Index(s, ":")
		if idx < 0 {
			break
		}
		head := strings.TrimSpace(s[:idx])
		if head == "" || strings.ContainsAny(head, " \t\"") {
			break
		}
		a.b.Label(head)
		s = strings.TrimSpace(s[idx+1:])
		if s == "" {
			return a.b.err
		}
	}

	toks := tokenize(s)
	if len(toks) == 0 {
		return a.b.err
	}

	if strings.HasPrefix(toks[0], ".") {
		return a.directive(toks)
	}
	return a.instruction(toks)
}

func (a *assembler) directive(toks []string) error {
	switch toks[0] {
	case ".entry":
		if len(toks) != 2 {
			return fmt.Errorf(".entry wants one label")
		}
		a.entryLabel = toks[1]
		return nil
	case ".word", ".float", ".byte":
		if len(toks) < 3 {
			return fmt.Errorf("%s wants a name and at least one value", toks[0])
		}
		name := toks[1]
		switch toks[0] {
		case ".word":
			vals := make([]uint64, 0, len(toks)-2)
			for _, t := range toks[2:] {
				v, err := parseInt(t)
				if err != nil {
					return err
				}
				vals = append(vals, uint64(v))
			}
			a.b.Words(name, vals...)
		case ".float":
			vals := make([]float64, 0, len(toks)-2)
			for _, t := range toks[2:] {
				v, err := strconv.ParseFloat(t, 64)
				if err != nil {
					return fmt.Errorf("bad float %q", t)
				}
				vals = append(vals, v)
			}
			a.b.Floats(name, vals...)
		case ".byte":
			vals := make([]byte, 0, len(toks)-2)
			for _, t := range toks[2:] {
				v, err := parseInt(t)
				if err != nil {
					return err
				}
				if v < 0 || v > 255 {
					return fmt.Errorf("byte value %d out of range", v)
				}
				vals = append(vals, byte(v))
			}
			a.b.Bytes(name, vals)
		}
		return a.b.err
	case ".ascii":
		if len(toks) != 3 || !strings.HasPrefix(toks[2], "\"") || !strings.HasSuffix(toks[2], "\"") {
			return fmt.Errorf(".ascii wants a name and a quoted string")
		}
		s, err := strconv.Unquote(toks[2])
		if err != nil {
			return fmt.Errorf(".ascii: bad string %s: %v", toks[2], err)
		}
		a.b.Bytes(toks[1], []byte(s))
		return a.b.err
	case ".space":
		if len(toks) != 3 {
			return fmt.Errorf(".space wants a name and a size")
		}
		n, err := parseInt(toks[2])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad .space size %q", toks[2])
		}
		a.b.Space(toks[1], uint64(n))
		return a.b.err
	}
	return fmt.Errorf("unknown directive %q", toks[0])
}

func parseInt(t string) (int64, error) {
	if len(t) == 3 && t[0] == '\'' && t[2] == '\'' {
		return int64(t[1]), nil
	}
	v, err := strconv.ParseInt(t, 0, 64)
	if err != nil {
		// allow full-range unsigned hex like 0xffffffffffffffff
		u, uerr := strconv.ParseUint(t, 0, 64)
		if uerr != nil {
			return 0, fmt.Errorf("bad integer %q", t)
		}
		return int64(u), nil
	}
	return v, nil
}

func parseReg(t string, prefix byte, limit uint8) (uint8, error) {
	if len(t) < 2 || t[0] != prefix {
		return 0, fmt.Errorf("expected %c-register, got %q", prefix, t)
	}
	n, err := strconv.Atoi(t[1:])
	if err != nil || n < 0 || n >= int(limit) {
		return 0, fmt.Errorf("bad register %q", t)
	}
	return uint8(n), nil
}

func (a *assembler) instruction(toks []string) error {
	op, ok := isa.OpByName[toks[0]]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", toks[0])
	}
	args := toks[1:]

	next := func() (string, error) {
		if len(args) == 0 {
			return "", fmt.Errorf("%s: missing operand", op)
		}
		t := args[0]
		args = args[1:]
		return t, nil
	}
	gpr := func() (uint8, error) {
		t, err := next()
		if err != nil {
			return 0, err
		}
		return parseReg(t, 'x', isa.NumGPR)
	}
	fpr := func() (uint8, error) {
		t, err := next()
		if err != nil {
			return 0, err
		}
		return parseReg(t, 'f', isa.NumFPR)
	}
	vr := func() (uint8, error) {
		t, err := next()
		if err != nil {
			return 0, err
		}
		return parseReg(t, 'v', isa.NumVR)
	}
	imm := func() (int64, error) {
		t, err := next()
		if err != nil {
			return 0, err
		}
		return parseInt(t)
	}

	ins := isa.Instr{Op: op}
	var err error
	fill := func(steps ...func() error) error {
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		if len(args) != 0 {
			return fmt.Errorf("%s: too many operands", op)
		}
		a.b.Emit(ins)
		return nil
	}
	setRd := func(f func() (uint8, error)) func() error {
		return func() error { ins.Rd, err = f(); return err }
	}
	setRa := func(f func() (uint8, error)) func() error {
		return func() error { ins.Ra, err = f(); return err }
	}
	setRb := func(f func() (uint8, error)) func() error {
		return func() error { ins.Rb, err = f(); return err }
	}
	setImm := func() error { ins.Imm, err = imm(); return err }

	switch op {
	case isa.OpNop, isa.OpHalt, isa.OpSyscall:
		return fill()
	case isa.OpMov:
		return fill(setRd(gpr), setRa(gpr))
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt:
		return fill(setRd(gpr), setRa(gpr), setRb(gpr))
	case isa.OpMovI:
		// movi xd, imm  |  movi xd, =symbol
		if err := setRd(gpr)(); err != nil {
			return err
		}
		t, err := next()
		if err != nil {
			return err
		}
		if len(args) != 0 {
			return fmt.Errorf("%s: too many operands", op)
		}
		if strings.HasPrefix(t, "=") {
			a.b.Addr(ins.Rd, t[1:])
			return nil
		}
		v, err := parseInt(t)
		if err != nil {
			return err
		}
		ins.Imm = v
		a.b.Emit(ins)
		return nil
	case isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpShlI, isa.OpShrI, isa.OpSltI:
		return fill(setRd(gpr), setRa(gpr), setImm)
	case isa.OpFMov:
		return fill(setRd(fpr), setRa(fpr))
	case isa.OpFMovI:
		if err := setRd(fpr)(); err != nil {
			return err
		}
		t, err := next()
		if err != nil {
			return err
		}
		if len(args) != 0 {
			return fmt.Errorf("%s: too many operands", op)
		}
		v, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return fmt.Errorf("bad float %q", t)
		}
		ins.Imm = int64(math.Float64bits(v))
		a.b.Emit(ins)
		return nil
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		return fill(setRd(fpr), setRa(fpr), setRb(fpr))
	case isa.OpFSqrt:
		return fill(setRd(fpr), setRa(fpr))
	case isa.OpCvtIF:
		return fill(setRd(fpr), setRa(gpr))
	case isa.OpCvtFI:
		return fill(setRd(gpr), setRa(fpr))
	case isa.OpFCmpLt:
		return fill(setRd(gpr), setRa(fpr), setRb(fpr))
	case isa.OpVAdd, isa.OpVXor, isa.OpVMul:
		return fill(setRd(vr), setRa(vr), setRb(vr))
	case isa.OpVSplat:
		return fill(setRd(vr), setRa(gpr))
	case isa.OpLd, isa.OpLdB:
		return fill(setRd(gpr), setRa(gpr), setImm)
	case isa.OpSt, isa.OpStB:
		// st xa, off, xb  — matches the Builder's argument order
		return fill(setRa(gpr), setImm, setRb(gpr))
	case isa.OpFLd:
		return fill(setRd(fpr), setRa(gpr), setImm)
	case isa.OpFSt:
		return fill(setRa(gpr), setImm, setRb(fpr))
	case isa.OpVLd:
		return fill(setRd(vr), setRa(gpr), setImm)
	case isa.OpVSt:
		return fill(setRa(gpr), setImm, setRb(vr))
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		if err := setRa(gpr)(); err != nil {
			return err
		}
		if err := setRb(gpr)(); err != nil {
			return err
		}
		return a.branchTarget(op, ins.Ra, ins.Rb, &args)
	case isa.OpJmp, isa.OpJal:
		return a.branchTarget(op, 0, 0, &args)
	case isa.OpJr:
		return fill(setRa(gpr))
	case isa.OpRdtsc:
		return fill(setRd(gpr))
	case isa.OpMrs:
		return fill(setRd(gpr), setImm)
	}
	return fmt.Errorf("unhandled mnemonic %q", toks[0])
}

func (a *assembler) branchTarget(op isa.Op, ra, rb uint8, args *[]string) error {
	if len(*args) != 1 {
		return fmt.Errorf("%s: wants a label target", op)
	}
	label := (*args)[0]
	*args = nil
	a.b.branch(op, ra, rb, label)
	return nil
}
