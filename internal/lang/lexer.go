// Package lang implements paftlang, a small imperative language that
// compiles to the guest ISA. It exists so that workloads and examples for
// the protected runtime can be written at statement level instead of in
// assembly:
//
//	var acc = 0;
//	var table[4096];
//	var i = 0;
//	while (i < 100000) {
//	    table[i & 4095] = table[i & 4095] + i;
//	    acc = acc + table[i & 4095];
//	    i = i + 1;
//	}
//	print("done\n");
//	printnum(acc);
//	exit(acc & 255);
//
// The compiler is a classic three-stage pipeline: lexer (this file), a
// recursive-descent parser with precedence climbing (parser.go), and a
// stack-machine code generator targeting the asm Builder (codegen.go).
package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // operators and delimiters, identified by text
	tokKeyword
)

var keywords = map[string]bool{
	"var": true, "while": true, "if": true, "else": true,
	"print": true, "printnum": true, "exit": true,
}

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	num  int64  // for tokNumber
	str  string // for tokString (unquoted, escapes processed)
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.str)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Error is a compile error with a source position.
type Error struct {
	File      string // the name Compile was given
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// multi-character operators, longest first so maximal munch works
var multiOps = []string{"<<", ">>", "<=", ">=", "==", "!=", "&&", "||"}

const singleOps = "+-*/%&|^<>!=;,()[]{}"

// lex tokenises the whole source.
func lex(src string) ([]token, error) {
	var toks []token
	line, col := 1, 1
	i := 0
	advance := func(n int) {
		for k := 0; k < n; k++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}

	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)

		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				advance(1)
			}

		case unicode.IsDigit(rune(c)):
			startLine, startCol := line, col
			j := i
			for j < len(src) && (isIdentChar(src[j])) {
				j++
			}
			text := src[i:j]
			v, err := strconv.ParseInt(text, 0, 64)
			if err != nil {
				u, uerr := strconv.ParseUint(text, 0, 64)
				if uerr != nil {
					return nil, errAt(startLine, startCol, "bad number %q", text)
				}
				v = int64(u)
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: v, line: startLine, col: startCol})
			advance(j - i)

		case isIdentStart(c):
			startLine, startCol := line, col
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			text := src[i:j]
			kind := tokIdent
			if keywords[text] {
				kind = tokKeyword
			}
			toks = append(toks, token{kind: kind, text: text, line: startLine, col: startCol})
			advance(j - i)

		case c == '"':
			startLine, startCol := line, col
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(src) {
				return nil, errAt(startLine, startCol, "unterminated string")
			}
			raw := src[i : j+1]
			unq, err := strconv.Unquote(raw)
			if err != nil {
				return nil, errAt(startLine, startCol, "bad string %s: %v", raw, err)
			}
			toks = append(toks, token{kind: tokString, text: raw, str: unq, line: startLine, col: startCol})
			advance(j + 1 - i)

		default:
			startLine, startCol := line, col
			matched := false
			for _, op := range multiOps {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{kind: tokPunct, text: op, line: startLine, col: startCol})
					advance(len(op))
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			if strings.IndexByte(singleOps, c) >= 0 {
				toks = append(toks, token{kind: tokPunct, text: string(c), line: startLine, col: startCol})
				advance(1)
				continue
			}
			return nil, errAt(startLine, startCol, "unexpected character %q", c)
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) ||
		c == 'x' || c == 'X' // hex literals lex as ident-ish runs of digits
}
