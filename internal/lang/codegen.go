package lang

import (
	"errors"
	"fmt"

	"parallaft/internal/asm"
	"parallaft/internal/isa"
	"parallaft/internal/oskernel"
)

// Code generation: a stack machine over registers.
//
// Register convention:
//
//	x0..x3   syscall number/arguments/result (clobbered at statements)
//	x4, x5   codegen scratch
//	x6..x13  expression evaluation stack (8 deep; deeper nesting is a
//	         compile error — flatten the expression)
//	x14,x15  SP / LR (untouched)
//
// Every statement starts and ends with an empty evaluation stack, so
// syscall-emitting statements never clobber live values.

const (
	evalBase  = 6
	evalDepth = 8
	scratchA  = 4
	scratchB  = 5
)

type symbol struct {
	isArray bool
	size    int64
}

type codegen struct {
	b       *asm.Builder
	syms    map[string]symbol
	labelID int
	err     error
}

// Compile translates paftlang source into a runnable guest program. A
// compile error is an *Error whose File is name.
func Compile(name, src string) (*asm.Program, error) {
	p, err := compile(name, src)
	var e *Error
	if errors.As(err, &e) {
		e.File = name
	}
	return p, err
}

func compile(name, src string) (*asm.Program, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	g := &codegen{b: asm.NewBuilder(name), syms: make(map[string]symbol)}

	// Declarations first (data layout), walking nested blocks too; all
	// variables share one flat scope, and initialisers run as code at
	// their statement position.
	if err := g.collectDecls(prog.stmts); err != nil {
		return nil, err
	}
	g.b.Bytes("__pn", make([]byte, 24)) // printnum conversion buffer

	for _, s := range prog.stmts {
		g.stmt(s)
		if g.err != nil {
			return nil, g.err
		}
	}
	// implicit exit(0)
	g.b.MovI(0, int64(oskernel.SysExit))
	g.b.MovI(1, 0)
	g.b.Syscall()

	return g.b.Build()
}

// MustCompile is Compile that panics on error, for static definitions.
func MustCompile(name, src string) *asm.Program {
	p, err := Compile(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

// collectDecls registers every variable declaration in the tree (the
// language has one flat scope) and lays out its storage.
func (g *codegen) collectDecls(list []stmt) error {
	for _, s := range list {
		switch s := s.(type) {
		case *varDecl:
			if _, dup := g.syms[s.name]; dup {
				l, c := s.pos()
				return errAt(l, c, "variable %q redeclared", s.name)
			}
			if s.isArray {
				g.syms[s.name] = symbol{isArray: true, size: s.size}
				g.b.Space("u_"+s.name, uint64(s.size)*8)
			} else {
				g.syms[s.name] = symbol{}
				g.b.Words("u_"+s.name, 0)
			}
		case *whileStmt:
			if err := g.collectDecls(s.body); err != nil {
				return err
			}
		case *ifStmt:
			if err := g.collectDecls(s.then); err != nil {
				return err
			}
			if err := g.collectDecls(s.elseBody); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *codegen) fail(n node, format string, args ...any) {
	if g.err == nil {
		l, c := n.pos()
		g.err = errAt(l, c, format, args...)
	}
}

func (g *codegen) label(kind string) string {
	g.labelID++
	return fmt.Sprintf("__%s_%d", kind, g.labelID)
}

func (g *codegen) lookup(n node, name string, wantArray bool) (symbol, bool) {
	sym, ok := g.syms[name]
	if !ok {
		g.fail(n, "undefined variable %q", name)
		return symbol{}, false
	}
	if sym.isArray != wantArray {
		if wantArray {
			g.fail(n, "%q is a scalar, not an array", name)
		} else {
			g.fail(n, "%q is an array; index it", name)
		}
		return symbol{}, false
	}
	return sym, true
}

// --- statements -------------------------------------------------------------

func (g *codegen) stmts(list []stmt) {
	for _, s := range list {
		g.stmt(s)
		if g.err != nil {
			return
		}
	}
}

func (g *codegen) stmt(s stmt) {
	b := g.b
	switch s := s.(type) {
	case *varDecl:
		if s.isArray || s.init == nil {
			return // layout already emitted; zero init is the default
		}
		g.expr(s.init, 0)
		b.Addr(scratchA, "u_"+s.name)
		b.St(scratchA, 0, evalBase)

	case *assignStmt:
		if s.index == nil {
			if _, ok := g.lookup(s, s.name, false); !ok {
				return
			}
			g.expr(s.value, 0)
			b.Addr(scratchA, "u_"+s.name)
			b.St(scratchA, 0, evalBase)
			return
		}
		if _, ok := g.lookup(s, s.name, true); !ok {
			return
		}
		g.expr(s.index, 0) // x6 = index
		g.expr(s.value, 1) // x7 = value
		b.ShlI(evalBase, evalBase, 3)
		b.Addr(scratchA, "u_"+s.name)
		b.Add(scratchA, scratchA, evalBase)
		b.St(scratchA, 0, evalBase+1)

	case *whileStmt:
		start, end := g.label("while"), g.label("wend")
		b.Label(start)
		g.expr(s.cond, 0)
		b.MovI(scratchA, 0)
		b.Beq(evalBase, scratchA, end)
		g.stmts(s.body)
		b.Jmp(start)
		b.Label(end)

	case *ifStmt:
		elseL, end := g.label("else"), g.label("fi")
		g.expr(s.cond, 0)
		b.MovI(scratchA, 0)
		b.Beq(evalBase, scratchA, elseL)
		g.stmts(s.then)
		b.Jmp(end)
		b.Label(elseL)
		if s.elseBody != nil {
			g.stmts(s.elseBody)
		}
		b.Label(end)

	case *printStmt:
		sym := g.label("str")
		b.Bytes(sym, []byte(s.text))
		b.MovI(0, int64(oskernel.SysWrite))
		b.MovI(1, 1)
		b.Addr(2, sym)
		b.MovI(3, int64(len(s.text)))
		b.Syscall()

	case *printNumStmt:
		g.expr(s.value, 0)
		g.emitPrintNum()

	case *exitStmt:
		g.expr(s.value, 0)
		b.Mov(1, evalBase)
		b.MovI(0, int64(oskernel.SysExit))
		b.Syscall()

	default:
		g.fail(s, "unhandled statement %T", s)
	}
}

// emitPrintNum renders x6 as signed decimal plus newline. Uses x7 (sign)
// and x8 (write pointer); statements always have the full stack free.
func (g *codegen) emitPrintNum() {
	b := g.b
	const v, sign, ptr = evalBase, evalBase + 1, evalBase + 2
	absDone, digit, noMinus := g.label("pnabs"), g.label("pndig"), g.label("pnnm")

	b.Addr(ptr, "__pn")
	b.AddI(ptr, ptr, 23)
	b.MovI(scratchA, '\n')
	b.StB(ptr, 0, scratchA)

	b.MovI(scratchA, 0)
	b.Slt(sign, v, scratchA) // sign = v < 0
	b.Beq(sign, scratchA, absDone)
	b.Sub(v, scratchA, v) // v = -v
	b.Label(absDone)

	b.Label(digit)
	b.AddI(ptr, ptr, -1)
	b.MovI(scratchA, 10)
	b.Rem(scratchB, v, scratchA)
	b.AddI(scratchB, scratchB, '0')
	b.StB(ptr, 0, scratchB)
	b.Div(v, v, scratchA)
	b.MovI(scratchA, 0)
	b.Bne(v, scratchA, digit)

	b.Beq(sign, scratchA, noMinus)
	b.AddI(ptr, ptr, -1)
	b.MovI(scratchB, '-')
	b.StB(ptr, 0, scratchB)
	b.Label(noMinus)

	// write(1, ptr, bufEnd-ptr)
	b.Addr(scratchA, "__pn")
	b.AddI(scratchA, scratchA, 24)
	b.Sub(3, scratchA, ptr)
	b.Mov(2, ptr)
	b.MovI(1, 1)
	b.MovI(0, int64(oskernel.SysWrite))
	b.Syscall()
}

// --- expressions -------------------------------------------------------------

// expr evaluates e into register evalBase+depth.
func (g *codegen) expr(e expr, depth int) {
	if g.err != nil {
		return
	}
	if depth >= evalDepth {
		g.fail(e, "expression too deeply nested (max %d); split it across statements", evalDepth)
		return
	}
	dst := uint8(evalBase + depth)
	b := g.b

	switch e := e.(type) {
	case *numberLit:
		b.MovI(dst, e.value)

	case *varRef:
		if _, ok := g.lookup(e, e.name, false); !ok {
			return
		}
		b.Addr(scratchA, "u_"+e.name)
		b.Ld(dst, scratchA, 0)

	case *indexExpr:
		if _, ok := g.lookup(e, e.name, true); !ok {
			return
		}
		g.expr(e.index, depth)
		b.ShlI(dst, dst, 3)
		b.Addr(scratchA, "u_"+e.name)
		b.Add(scratchA, scratchA, dst)
		b.Ld(dst, scratchA, 0)

	case *unaryExpr:
		g.expr(e.x, depth)
		switch e.op {
		case "-":
			b.MovI(scratchA, 0)
			b.Sub(dst, scratchA, dst)
		case "!":
			g.emitNZ(dst)
			b.XorI(dst, dst, 1)
		default:
			g.fail(e, "unhandled unary %q", e.op)
		}

	case *binaryExpr:
		g.expr(e.x, depth)
		g.expr(e.y, depth+1)
		if g.err != nil {
			return
		}
		rhs := dst + 1
		switch e.op {
		case "+":
			b.Add(dst, dst, rhs)
		case "-":
			b.Sub(dst, dst, rhs)
		case "*":
			b.Mul(dst, dst, rhs)
		case "/":
			b.Div(dst, dst, rhs)
		case "%":
			b.Rem(dst, dst, rhs)
		case "&":
			b.And(dst, dst, rhs)
		case "|":
			b.Or(dst, dst, rhs)
		case "^":
			b.Xor(dst, dst, rhs)
		case "<<":
			b.Shl(dst, dst, rhs)
		case ">>":
			b.Shr(dst, dst, rhs)
		case "<":
			b.Slt(dst, dst, rhs)
		case ">":
			b.Slt(dst, rhs, dst)
		case "<=":
			b.Slt(dst, rhs, dst)
			b.XorI(dst, dst, 1)
		case ">=":
			b.Slt(dst, dst, rhs)
			b.XorI(dst, dst, 1)
		case "==":
			b.Sub(dst, dst, rhs)
			g.emitNZ(dst)
			b.XorI(dst, dst, 1)
		case "!=":
			b.Sub(dst, dst, rhs)
			g.emitNZ(dst)
		case "&&":
			g.emitNZ(dst)
			g.emitNZ(rhs)
			b.And(dst, dst, rhs)
		case "||":
			b.Or(dst, dst, rhs)
			g.emitNZ(dst)
		default:
			g.fail(e, "unhandled operator %q", e.op)
		}

	case *callExpr:
		switch e.name {
		case "getpid":
			b.MovI(0, int64(oskernel.SysGetPID))
			b.Syscall()
			b.Mov(dst, 0)
		case "gettime":
			b.MovI(0, int64(oskernel.SysGetTime))
			b.Syscall()
			b.Mov(dst, 0)
		case "rdtsc":
			b.Rdtsc(dst)
		case "coreid":
			b.Mrs(dst, isa.SysRegMIDR)
		case "random":
			b.MovI(0, int64(oskernel.SysGetRandom))
			b.Addr(1, "__pn") // reuse the conversion buffer as scratch
			b.MovI(2, 8)
			b.Syscall()
			b.Addr(scratchA, "__pn")
			b.Ld(dst, scratchA, 0)
		default:
			g.fail(e, "unknown intrinsic %q", e.name)
		}

	default:
		g.fail(e, "unhandled expression %T", e)
	}
}

// emitNZ normalises a register to 0/1 (nonzero becomes 1).
func (g *codegen) emitNZ(r uint8) {
	b := g.b
	b.MovI(scratchA, 0)
	b.Slt(scratchB, scratchA, r) // r > 0
	b.Slt(scratchA, r, scratchA) // r < 0
	b.Or(r, scratchB, scratchA)
}
