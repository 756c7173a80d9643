// Package asm provides the front end for guest programs: a two-pass textual
// assembler, a programmatic Builder used by the workload generators, and a
// disassembler. It produces Program images that the simulated OS loads into
// a process.
package asm

import (
	"fmt"
	"sort"
	"strings"

	"parallaft/internal/isa"
)

// Default memory layout constants for loaded programs. The OS loader maps
// the data image at DataBase, the stack below StackTop, and sets the program
// break just past the data image.
const (
	DataBase  uint64 = 0x0001_0000
	StackTop  uint64 = 0x7fff_0000
	StackSize uint64 = 256 * 1024
)

// Program is an assembled guest program image.
type Program struct {
	Name    string
	Code    []isa.Instr
	Data    []byte            // initial data image, mapped at DataBase
	Entry   uint64            // starting PC (instruction index)
	BSS     uint64            // zero-initialised bytes mapped after Data
	Symbols map[string]uint64 // data symbol -> virtual address
	Labels  map[string]uint64 // code label -> instruction index
}

// Validate checks every instruction against the ISA operand rules.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("asm: program %q has no code", p.Name)
	}
	if p.Entry >= uint64(len(p.Code)) {
		return fmt.Errorf("asm: program %q entry %d outside code", p.Name, p.Entry)
	}
	return isa.ValidateProgram(p.Code)
}

// Disassemble renders the program as assembler text with labels and data
// directives, suitable for re-assembly: branch targets are rendered as
// labels (synthesising L<pc> names where the program has none), and data
// symbols become .byte directives so `movi rd, =sym` immediates survive the
// round trip.
func (p *Program) Disassemble() string {
	var sb strings.Builder

	labelAt := make(map[uint64][]string)
	for name, pc := range p.Labels {
		labelAt[pc] = append(labelAt[pc], name)
	}
	for pc := range labelAt {
		sort.Strings(labelAt[pc])
	}
	// Synthesise labels for branch targets that have none; remember the
	// name to use per target.
	targetName := make(map[uint64]string)
	for _, ins := range p.Code {
		if ins.Op.IsBranch() && ins.Op != isa.OpJr {
			tgt := uint64(ins.Imm)
			if _, ok := targetName[tgt]; ok {
				continue
			}
			if names := labelAt[tgt]; len(names) > 0 {
				targetName[tgt] = names[0]
			} else {
				name := fmt.Sprintf("L%d", tgt)
				targetName[tgt] = name
				labelAt[tgt] = append(labelAt[tgt], name)
			}
		}
	}

	// Data image as .byte directives, chunked per symbol region. Symbols
	// inside the BSS become .space reservations.
	if len(p.Symbols) > 0 {
		names := make([]string, 0, len(p.Symbols))
		for n := range p.Symbols {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return p.Symbols[names[i]] < p.Symbols[names[j]] })
		dataEnd := DataBase + uint64(len(p.Data))
		if first := p.Symbols[names[0]]; first > DataBase && first <= dataEnd {
			// preserve anonymous bytes before the first symbol
			fmt.Fprintf(&sb, ".byte __pre")
			for _, b := range p.Data[:first-DataBase] {
				fmt.Fprintf(&sb, " %d", b)
			}
			sb.WriteByte('\n')
		}
		for i, n := range names {
			start := p.Symbols[n]
			end := dataEnd + p.BSS
			if i+1 < len(names) {
				end = p.Symbols[names[i+1]]
			}
			if start >= dataEnd {
				fmt.Fprintf(&sb, ".space %s %d\n", n, end-start)
				continue
			}
			fmt.Fprintf(&sb, ".byte %s", n)
			for _, b := range p.Data[start-DataBase : end-DataBase] {
				fmt.Fprintf(&sb, " %d", b)
			}
			sb.WriteByte('\n')
		}
	}

	for pc, ins := range p.Code {
		for _, l := range labelAt[uint64(pc)] {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		if ins.Op.IsBranch() && ins.Op != isa.OpJr {
			mn := ins.Op.String()
			switch ins.Op {
			case isa.OpJmp, isa.OpJal:
				fmt.Fprintf(&sb, "\t%s %s\n", mn, targetName[uint64(ins.Imm)])
			default:
				fmt.Fprintf(&sb, "\t%s x%d, x%d, %s\n", mn, ins.Ra, ins.Rb, targetName[uint64(ins.Imm)])
			}
			continue
		}
		fmt.Fprintf(&sb, "\t%s\n", ins)
	}
	if p.Entry != 0 {
		if names := labelAt[p.Entry]; len(names) > 0 {
			fmt.Fprintf(&sb, ".entry %s\n", names[0])
		}
	}
	return sb.String()
}
