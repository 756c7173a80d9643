package core

import (
	"bytes"
	"fmt"

	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
)

// ExecPoint identifies a precise point in a segment's execution: the number
// of branches retired since the segment started, plus the program counter.
// A PC alone is not sufficient because it may be inside a loop; the branch
// count selects the iteration (§4.2, footnote 5).
type ExecPoint struct {
	Branches uint64 // segment-relative retired-branch count
	PC       uint64
}

// String renders the execution point.
func (e ExecPoint) String() string {
	return fmt.Sprintf("pc=%d after %d branches", e.PC, e.Branches)
}

// EventKind tags record/replay log entries.
type EventKind uint8

// Event kinds.
const (
	// EvSyscall covers all three syscall classes; the record's Class field
	// selects replay behaviour.
	EvSyscall EventKind = iota
	// EvNondet is a trapped nondeterministic instruction (rdtsc/mrs).
	EvNondet
	// EvSignalInternal is a fault raised by the application itself
	// (SIGSEGV, SIGFPE); it occurs at a deterministic point so replay is
	// self-synchronising (§4.3.3).
	EvSignalInternal
	// EvSignalExternal is an asynchronous signal from outside; its
	// delivery point is an ExecPoint the checker must be steered to
	// (§4.3.3).
	EvSignalExternal
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvSyscall:
		return "syscall"
	case EvNondet:
		return "nondet"
	case EvSignalInternal:
		return "signal-internal"
	case EvSignalExternal:
		return "signal-external"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// RegionData is captured guest memory. It is the wire type itself, so a
// record's captures cross into a check packet and back without copying.
type RegionData = packet.Region

// SyscallRecord captures one syscall made by the main process.
type SyscallRecord struct {
	Info  oskernel.Info
	Class oskernel.Class
	// In holds the contents of the input regions (per the syscall model)
	// at the time the main issued the call; the checker's inputs must
	// match byte-for-byte.
	In []RegionData
	// Ret is the main's return value, replayed to the checker for global
	// and non-effectful calls.
	Ret int64
	// Out holds the memory the kernel wrote for the main (e.g. read
	// data), replayed into the checker.
	Out []RegionData
	// MmapFixedAddr pins the checker's replayed mmap to the address ASLR
	// gave the main (§4.3.2); zero when not an address-returning map.
	MmapFixedAddr uint64
}

// NondetRecord captures a trapped nondeterministic instruction.
type NondetRecord struct {
	PC    uint64
	Value uint64
}

// SignalRecord captures a signal delivery.
type SignalRecord struct {
	Sig proc.Signal
	PC  uint64
	// Point is the segment-relative delivery point for external signals.
	Point ExecPoint
	// Fatal records that the main had no handler and was killed.
	Fatal bool
}

// Event is one record/replay log entry.
type Event struct {
	Kind    EventKind
	Syscall *SyscallRecord
	Nondet  *NondetRecord
	Signal  *SignalRecord
}

// RRLog is the ordered record/replay log for one segment. The checker must
// reproduce exactly this event sequence; any deviation is a detected error.
type RRLog struct {
	Events []Event
	// Bytes estimates the recorded payload size, for runtime-work costing.
	Bytes uint64
}

// Append adds an event.
func (l *RRLog) Append(ev Event) {
	l.Events = append(l.Events, ev)
	switch ev.Kind {
	case EvSyscall:
		for _, r := range ev.Syscall.In {
			l.Bytes += uint64(len(r.Data))
		}
		for _, r := range ev.Syscall.Out {
			l.Bytes += uint64(len(r.Data))
		}
		l.Bytes += 64
	default:
		l.Bytes += 32
	}
}

// captureRegions snapshots guest memory extents; unreadable regions are
// recorded as empty (the comparison will then flag any main/checker
// difference in readability).
func captureRegions(p *proc.Process, regions []oskernel.Region) []RegionData {
	out := make([]RegionData, 0, len(regions))
	for _, r := range regions {
		buf := make([]byte, r.Len)
		if f := p.AS.Read(r.Addr, buf); f != nil {
			buf = nil
		}
		out = append(out, RegionData{Addr: r.Addr, Data: buf})
	}
	return out
}

// regionsEqual compares two captures byte-for-byte.
func regionsEqual(a, b []RegionData) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}
