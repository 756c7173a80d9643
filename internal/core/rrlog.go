package core

import (
	"bytes"

	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
)

// RRLog is the ordered record/replay log for one segment. The checker must
// reproduce exactly this event sequence; any deviation is a detected error.
// Its entries are the check packet's own events: a sealed log is exported,
// and a packet's log replayed, as it is.
type RRLog struct {
	Events []packet.Event
	// Bytes estimates the recorded payload size, for runtime-work costing.
	Bytes uint64
}

// Append adds an event.
func (l *RRLog) Append(ev packet.Event) {
	l.Events = append(l.Events, ev)
	switch ev.Kind {
	case packet.EvSyscall:
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
func captureRegions(p *proc.Process, regions []oskernel.Region) []packet.Region {
	out := make([]packet.Region, 0, len(regions))
	for _, r := range regions {
		buf := make([]byte, r.Len)
		if f := p.AS.Read(r.Addr, buf); f != nil {
			buf = nil
		}
		out = append(out, packet.Region{Addr: r.Addr, Data: buf})
	}
	return out
}

// regionsEqual compares two captures byte-for-byte.
func regionsEqual(a, b []packet.Region) bool {
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
