package core

import (
	"reflect"
	"testing"

	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
)

// TestEventWireRoundTrip: a recorded log survives a trip through a check
// packet's wire encoding over every event kind, with and without captured
// regions and a pinned mmap address — what a packet's replay sees is what
// the main recorded.
func TestEventWireRoundTrip(t *testing.T) {
	events := []packet.Event{
		{Kind: packet.EvSyscall, Syscall: &packet.SyscallEvent{
			Info:  oskernel.Info{Nr: oskernel.SysWrite, Args: oskernel.Args{1, 0x10000, 5, 0, 0}},
			Class: oskernel.ClassGlobal,
			In:    []packet.Region{{Addr: 0x10000, Data: []byte("hello")}},
			Ret:   5,
		}},
		{Kind: packet.EvSyscall, Syscall: &packet.SyscallEvent{
			Info:  oskernel.Info{Nr: oskernel.SysRead, Args: oskernel.Args{3, 0x20000, 4, 0, 0}},
			Class: oskernel.ClassGlobal,
			Ret:   4,
			Out:   []packet.Region{{Addr: 0x20000, Data: []byte{1, 2, 3, 4}}, {Addr: 0x30000, Data: nil}},
		}},
		{Kind: packet.EvSyscall, Syscall: &packet.SyscallEvent{
			Info:          oskernel.Info{Nr: oskernel.SysMmap, Args: oskernel.Args{0, 1 << 16, 3, 1, 0}},
			Class:         oskernel.ClassLocal,
			Ret:           0x7f00_0000,
			MmapFixedAddr: 0x7f00_0000,
		}},
		{Kind: packet.EvSyscall, Syscall: &packet.SyscallEvent{
			Info:  oskernel.Info{Nr: oskernel.SysGetPID},
			Class: oskernel.ClassNonEffectful,
			Ret:   -int64(oskernel.EINVAL),
		}},
		{Kind: packet.EvNondet, Nondet: &packet.NondetEvent{PC: 17, Value: 0xdead_beef}},
		{Kind: packet.EvSignalInternal, Signal: &packet.SignalEvent{Sig: proc.SIGSEGV, PC: 40, Fatal: true}},
		{Kind: packet.EvSignalExternal, Signal: &packet.SignalEvent{Sig: proc.SIGUSR1, PC: 9,
			Point: packet.ExecPoint{Branches: 1234, PC: 9}}},
	}
	got, err := packet.Decode(packet.Encode(&packet.CheckPacket{Version: packet.Version, Events: events}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got.Events), len(events))
	}
	for i, ev := range events {
		if !reflect.DeepEqual(got.Events[i], ev) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", ev.Kind, got.Events[i], ev)
		}
	}
}
