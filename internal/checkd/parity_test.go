package checkd

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/proc"
	"parallaft/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -run Golden -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// substrate is one way to build the machine under a checker, or none. A
// verdict is a function of architectural state only, so it must not depend
// on which.
type substrate struct {
	name  string
	new   func() *checker
	reset bool // give the checker a freshly built machine before every packet
}

// timedOn is a checker replaying timed on the given core of m.
func timedOn(m *machine.Machine, core *machine.Core) *checker {
	return &checker{m: m, core: core}
}

var substrates = []substrate{
	{"timed, big core, reset per packet", func() *checker {
		m := machine.New(machine.BigOnly())
		return timedOn(m, m.BigCores()[0])
	}, true},
	{"timed, little core", func() *checker {
		m := machine.New(machine.AppleM2Like())
		return timedOn(m, m.LittleCores()[0])
	}, true},
	{"timed, warm caches", func() *checker {
		m := machine.New(machine.BigOnly())
		return timedOn(m, m.BigCores()[0])
	}, false},
	{"functional", newChecker, false},
}

// requireSubstrateIndependent checks pkts in order on one checker per
// substrate, the substrates side by side, and fails unless each packet's
// verdict — pass or fail, error kind, detail, segment — is want's, byte for
// byte, on every one.
func requireSubstrateIndependent(t *testing.T, store *pagestore.Store, pkts []*packet.CheckPacket, want []Verdict) {
	t.Helper()
	if len(want) != len(pkts) {
		t.Fatalf("%d verdicts for %d packets", len(want), len(pkts))
	}
	key := func(v Verdict) string {
		return fmt.Sprintf("ok=%v kind=%q detail=%q seg=%d infra=%q", v.OK, v.ErrorKind, v.Detail, v.Segment, v.Infra)
	}
	var wg sync.WaitGroup
	for _, sub := range substrates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sub.new()
			probed := false // whether any packet changed the cache model
			for i, pkt := range pkts {
				if sub.reset {
					fresh := sub.new()
					probed = probed || !reflect.DeepEqual(c.m.Caches, fresh.m.Caches)
					c.m, c.core = fresh.m, fresh.core
				}
				v, err := c.check(store, pkt)
				if err != nil {
					v = NewInfraVerdict(pkt, err)
				}
				if key(v) != key(want[i]) {
					t.Errorf("%s seg %d on %q: %s\nwant %s", pkt.ProgName, pkt.Segment, sub.name, key(v), key(want[i]))
				}
			}
			// The seam must have chosen what it says: a checker with a
			// machine replays timed, probing its cache model.
			if c.m != nil && !probed && reflect.DeepEqual(c.m.Caches, sub.new().m.Caches) {
				t.Errorf("%s: the cache model never changed", sub.name)
			}
		}()
	}
	wg.Wait()
}

// TestGoldenOffloadParityAllWorkloads is the offloading service's
// non-negotiable invariant: for every built-in workload, the offloaded
// verdicts must be identical to in-process checking. Each workload's first
// program runs under the in-process runtime with export enabled; the
// exported packets are then checked by a fresh executor with no access to
// the originating run, and every verdict must come back clean, one per
// sealed segment. The golden file pins the packet counts so silent changes
// to segmentation or export coverage surface as drift. The same packets then
// run on every substrate — timed on a reset big core, on a little core and
// with warm caches, and functional — and every verdict must be the same.
func TestGoldenOffloadParityAllWorkloads(t *testing.T) {
	suite := append(workload.All(), workload.Stress()...)
	var sb strings.Builder
	for _, w := range suite {
		if testing.Short() && sb.Len() > 0 {
			t.Skip("short mode: first workload only")
		}
		progs := w.Gen(0.05)
		prog := progs[0]
		stats, store, pkts := runExported(t, smallSliceConfig(), prog)
		if stats.Detected != nil {
			t.Fatalf("%s: clean run detected in-process: %v", w.Name, stats.Detected)
		}
		verdicts, err := CheckAll(store, pkts, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: CheckAll: %v", w.Name, err)
		}
		if len(verdicts) != len(pkts) {
			t.Fatalf("%s: %d verdicts for %d packets", w.Name, len(verdicts), len(pkts))
		}
		ok := 0
		for _, v := range verdicts {
			if v.Infra != "" {
				t.Fatalf("%s: infrastructure failure: %v", w.Name, v)
			}
			if v.OK {
				ok++
			} else {
				t.Errorf("%s: offloaded verdict diverged from in-process (clean): %v", w.Name, v)
			}
		}
		requireSubstrateIndependent(t, store, pkts, verdicts)
		fmt.Fprintf(&sb, "%s prog=%s packets=%d ok=%d\n", w.Name, prog.Name, len(pkts), ok)
	}
	goldenCompare(t, "golden_offload_parity.txt", sb.String())
}

// replayFaultProgram gives main-side faults somewhere to land that the
// replay engine itself — not the end-state comparison — must notice: a
// compute loop, then a tail that sets up a write's arguments, spins long
// enough for a hook to land between set-up and use (and for a slice boundary
// to fall inside it), takes one deliberate SIGSEGV its handler skips, and
// writes and exits. Loop state lives in x6..x11 and the tail's in x13..x15,
// clear of the syscall registers x0..x5 and the handler link x12.
func replayFaultProgram() *asm.Program {
	b := asm.NewBuilder("replayfault")
	b.Ascii("msg", "sixteen byte msg")
	b.Space("buf", 32*1024)
	b.Jmp("setup")
	b.Label("handler")
	b.AddI(proc.HandlerLinkReg, proc.HandlerLinkReg, 1) // step over the faulting load
	b.Jr(proc.HandlerLinkReg)
	b.Label("setup")
	b.MovI(0, int64(oskernel.SysSigaction))
	b.MovI(1, int64(proc.SIGSEGV))
	b.LabelAddr(2, "handler")
	b.Syscall()
	b.MovI(6, 0)
	b.MovI(7, 0)
	b.MovI(8, 60_000)
	b.Addr(9, "buf")
	b.MovI(14, 0)
	b.Label("loop")
	b.AndI(10, 7, 4095)
	b.ShlI(10, 10, 3)
	b.Add(10, 9, 10)
	b.Ld(11, 10, 0)
	b.Add(11, 11, 7)
	b.St(10, 0, 11)
	b.AndI(10, 7, 1)
	b.Beq(10, 14, "even")
	for i := 0; i < 8; i++ { // odd iterations only
		b.Add(6, 6, 11)
	}
	b.Label("even")
	b.AddI(7, 7, 1)
	b.Blt(7, 8, "loop")
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "msg")
	b.MovI(3, 16)
	b.MovI(13, 0x6000_0000) // unmapped
	b.Addr(10, "buf")
	b.MovI(14, 0)
	b.MovI(15, 12_000)
	b.Label("tail")
	b.AddI(14, 14, 1)
	b.Blt(14, 15, "tail")
	b.Ld(11, 13, 0) // SIGSEGV, handled
	b.Ld(11, 10, 0)
	b.Syscall()
	b.AndI(1, 6, 255)
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	return b.MustBuild()
}

// TestGoldenOffloadParityInjectedFault injects one fault into the main
// mid-run, a row at a time: the in-process runtime detects the divergence at
// some segment, and the offloaded checker — replaying the same packets —
// must report the identical verdict: same detecting segment, same error
// kind, same detail, with every other exported segment passing. The first
// row ends in the end-state comparison (and is golden-pinned); the rest end
// in detections the replay engine raises, which only one shared engine can
// keep worded alike. Every substrate must give every packet the same verdict.
func TestGoldenOffloadParityInjectedFault(t *testing.T) {
	victim := victimProgram(120_000)
	rf := replayFaultProgram()
	// The victim's loop ending in a halt instruction — the one way out of a
	// program that leaves no event in the record.
	hb := victimLoop(60_000)
	hb.Halt()
	halting := hb.MustBuild()
	// once builds a MainHook that applies corrupt the first time when holds.
	once := func(when func(*proc.Process) bool, corrupt func(*proc.Process)) func(*proc.Process, float64) {
		done := false
		return func(m *proc.Process, _ float64) {
			if !done && when(m) {
				done = true
				corrupt(m)
			}
		}
	}
	inTail := func(m *proc.Process) bool { return m.Regs.X[14] > 0 && m.Regs.X[14] < 12_000 }

	rows := []struct {
		name   string
		prog   *asm.Program
		hook   func(*proc.Process, float64)
		kind   core.ErrorKind
		detail string // substring of the shared detail
		golden string
	}{
		{name: "memory bit flip", prog: victim,
			// One bit flip in the victim's buffer, past the first segment so
			// a pre-corruption checkpoint and packet exist.
			hook: once(func(m *proc.Process) bool { return m.Instrs >= 300_000 }, func(m *proc.Process) {
				addr := victim.Symbols["buf"] + 512
				v, _ := m.AS.LoadU64(addr)
				m.AS.StoreU64(addr, v^4) //nolint:errcheck
			}),
			kind: core.ErrMemMismatch, detail: "content hash differs", golden: "golden_offload_fault.txt"},
		{name: "syscall argument flip", prog: rf,
			hook: once(inTail, func(m *proc.Process) { m.Regs.X[3] ^= 8 }),
			kind: core.ErrSyscallMismatch, detail: "vs recorded write["},
		{name: "write buffer byte flip", prog: rf,
			hook: once(inTail, func(m *proc.Process) {
				v, _ := m.AS.LoadByte(rf.Symbols["msg"] + 3)
				m.AS.StoreByte(rf.Symbols["msg"]+3, v^0x20) //nolint:errcheck
			}),
			kind: core.ErrSyscallMismatch, detail: "write input data differs"},
		{name: "main never takes the signal", prog: rf,
			// The probe pointer is "repaired" in the main: it reads mapped
			// memory and records no fault, the checker takes the SIGSEGV.
			hook: once(inTail, func(m *proc.Process) { m.Regs.X[13] = rf.Symbols["buf"] }),
			kind: core.ErrCheckerException, detail: "diverges from record"},
		{name: "main takes a signal of its own", prog: rf,
			hook: once(inTail, func(m *proc.Process) { m.Regs.X[10] = 0x7000_0000 }),
			kind: core.ErrEventOrderMismatch, detail: "checker at a syscall, record expects signal-internal"},
		{name: "main out of step", prog: rf,
			// The iteration parity flips: the main is sliced inside the
			// odd-iterations-only block, which the checker enters one
			// iteration — two branches — later than the record says.
			hook: once(func(m *proc.Process) bool { return m.Instrs >= 300_000 }, func(m *proc.Process) { m.Regs.X[7] ^= 1 }),
			kind: core.ErrExecPointOverrun, detail: "branches, target"},
		{name: "main cut short", prog: rf,
			// Both loop bounds dropped mid-run: the main skips to the exit
			// while the checker keeps looping into its instruction budget.
			hook: once(func(m *proc.Process) bool { return m.Instrs >= 300_000 }, func(m *proc.Process) {
				m.Regs.X[8], m.Regs.X[15] = 0, 0
			}),
			kind: core.ErrCheckerTimeout, detail: "budget"},
		{name: "main runs long", prog: halting,
			// The main is set back 20000 iterations just before its loop
			// ends; the checker finishes on time and halts in a segment the
			// record says goes on.
			hook: once(func(m *proc.Process) bool { return m.Regs.X[2] > 59_000 }, func(m *proc.Process) { m.Regs.X[2] -= 20_000 }),
			kind: core.ErrCheckerExited, detail: "checker exited mid-segment"},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			cfg := smallSliceConfig()
			cfg.MainHook = row.hook
			stats, store, pkts := runExported(t, cfg, row.prog)
			if stats.Detected == nil {
				t.Fatal("in-process run did not detect the injected fault")
			}
			verdicts, err := CheckAll(store, pkts, Options{Workers: 4})
			if err != nil {
				t.Fatalf("CheckAll: %v", err)
			}

			var failing *Verdict
			for i := range verdicts {
				v := &verdicts[i]
				if v.Infra != "" {
					t.Fatalf("infrastructure failure: %v", v)
				}
				if v.OK {
					continue
				}
				if failing != nil {
					t.Fatalf("second failing verdict %v (already had %v); the fault must fail exactly one segment", v, failing)
				}
				failing = v
			}
			if failing == nil {
				t.Fatalf("offloaded checking missed what the in-process runtime detected: %v", stats.Detected)
			}
			inproc := fmt.Sprintf("seg=%d kind=%s detail=%s", stats.Detected.Segment, stats.Detected.Kind, stats.Detected.Detail)
			offl := fmt.Sprintf("seg=%d kind=%s detail=%s", failing.Segment, failing.ErrorKind, failing.Detail)
			t.Log(inproc)
			if inproc != offl {
				t.Errorf("verdicts differ:\ninprocess: %s\noffloaded: %s", inproc, offl)
			}
			if stats.Detected.Kind != row.kind || !strings.Contains(stats.Detected.Detail, row.detail) {
				t.Errorf("detected %s, want kind %s with detail containing %q", inproc, row.kind, row.detail)
			}
			requireSubstrateIndependent(t, store, pkts, verdicts)
			if row.golden != "" {
				goldenCompare(t, row.golden, fmt.Sprintf("inprocess: %s\noffloaded: %s\npackets=%d\n", inproc, offl, len(pkts)))
			}
		})
	}
}

// TestOffloadParityRegisterFault covers the checker-side fault path: a
// corrupted checker register makes the in-process comparison fail, while
// the exported packets describe a perfectly healthy run — the offloaded
// verdicts must all pass. Detection parity means agreeing about where the
// corruption happened: in the checker substrate, not in the recorded run.
func TestOffloadParityRegisterFault(t *testing.T) {
	cfg := smallSliceConfig()
	done := false
	cfg.ReplicaHook = func(seg, _ int, c *proc.Process, _ float64) {
		if done || seg != 1 {
			return
		}
		done = true
		c.FlipRegisterBit(proc.GPRClass, 1, 0, 40)
	}
	stats, store, pkts := runExported(t, cfg, victimProgram(120_000))
	if stats.Detected == nil {
		t.Fatal("in-process run did not detect the checker corruption")
	}
	verdicts, err := CheckAll(store, pkts, Options{})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	for _, v := range verdicts {
		if !v.OK {
			t.Errorf("offloaded verdict failed for a healthy recorded run: %v", v)
		}
	}
}

// TestOffloadNMRDissenterStillBudgeted: under NMR a replica-0 fault can make
// it dissent before its segment is sealed. The seal must budget it all the
// same — replica 0's instruction limit is the one the packet carries, and a
// packet without a limit is refused as unrunnable. The recorded run is
// healthy, so every packet must check clean.
func TestOffloadNMRDissenterStillBudgeted(t *testing.T) {
	cfg := smallSliceConfig()
	cfg.SlicePeriodCycles = 300_000 // long enough that replicas start before the seal
	cfg.Checkers = 3
	done := false
	cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) {
		if done || seg != 1 || rep != 0 {
			return
		}
		done = true
		c.Regs.X[4] = 0x7000_0000 // the buffer base: the next load faults
	}
	stats, store, pkts := runExported(t, cfg, victimProgram(120_000))
	if stats.Detected != nil || stats.VoteAbsorbed != 1 {
		t.Fatalf("detected=%v absorbed=%d, want the vote to absorb one dissenter", stats.Detected, stats.VoteAbsorbed)
	}
	for _, p := range pkts {
		if p.InstrLimit == 0 {
			t.Errorf("segment %d exported without an instruction limit", p.Segment)
		}
	}
	verdicts, err := CheckAll(store, pkts, Options{})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	for _, v := range verdicts {
		if !v.OK {
			t.Errorf("offloaded verdict failed for a healthy recorded run: %v", v)
		}
	}
}
