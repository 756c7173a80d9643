package core

import (
	"reflect"
	"testing"

	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
)

// TestEventWireRoundTrip: exportEvent and importEvent are inverses over every
// event kind, with and without captured regions and a pinned mmap address —
// what a packet's replay sees is what the main recorded.
func TestEventWireRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: EvSyscall, Syscall: &SyscallRecord{
			Info:  oskernel.Info{Nr: oskernel.SysWrite, Args: oskernel.Args{1, 0x10000, 5, 0, 0}},
			Class: oskernel.ClassGlobal,
			In:    []RegionData{{Addr: 0x10000, Data: []byte("hello")}},
			Ret:   5,
		}},
		{Kind: EvSyscall, Syscall: &SyscallRecord{
			Info:  oskernel.Info{Nr: oskernel.SysRead, Args: oskernel.Args{3, 0x20000, 4, 0, 0}},
			Class: oskernel.ClassGlobal,
			Ret:   4,
			Out:   []RegionData{{Addr: 0x20000, Data: []byte{1, 2, 3, 4}}, {Addr: 0x30000, Data: nil}},
		}},
		{Kind: EvSyscall, Syscall: &SyscallRecord{
			Info:          oskernel.Info{Nr: oskernel.SysMmap, Args: oskernel.Args{0, 1 << 16, 3, 1, 0}},
			Class:         oskernel.ClassLocal,
			Ret:           0x7f00_0000,
			MmapFixedAddr: 0x7f00_0000,
		}},
		{Kind: EvSyscall, Syscall: &SyscallRecord{
			Info:  oskernel.Info{Nr: oskernel.SysGetPID},
			Class: oskernel.ClassNonEffectful,
			Ret:   -int64(oskernel.EINVAL),
		}},
		{Kind: EvNondet, Nondet: &NondetRecord{PC: 17, Value: 0xdead_beef}},
		{Kind: EvSignalInternal, Signal: &SignalRecord{Sig: proc.SIGSEGV, PC: 40, Fatal: true}},
		{Kind: EvSignalExternal, Signal: &SignalRecord{Sig: proc.SIGUSR1, PC: 9,
			Point: ExecPoint{Branches: 1234, PC: 9}}},
	}
	for _, ev := range events {
		wire := exportEvent(&ev)
		if got := importEvent(&wire); !reflect.DeepEqual(got, ev) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", ev.Kind, got, ev)
		}
	}
}
