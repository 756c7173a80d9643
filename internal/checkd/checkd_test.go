package checkd

import (
	"errors"
	"testing"
	"time"

	"parallaft/internal/asm"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/mem"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
)

// runExported runs a program under the in-process runtime with packet
// export enabled and returns the run's stats alongside the exported store
// and packets — the raw material for every offload test.
func runExported(t testing.TB, cfg core.Config, prog *asm.Program) (*core.RunStats, *pagestore.Store, []*packet.CheckPacket) {
	t.Helper()
	store := pagestore.New(core.PageHashSeed)
	stats, pkts := runExportedInto(t, store, cfg, prog)
	return stats, store, pkts
}

// runExportedInto is runExported into a store the caller shares between
// several programs' packets.
func runExportedInto(t testing.TB, store *pagestore.Store, cfg core.Config, prog *asm.Program) (*core.RunStats, []*packet.CheckPacket) {
	t.Helper()
	var pkts []*packet.CheckPacket
	cfg.Export = &packet.Exporter{
		Store: store,
		Sink:  func(p *packet.CheckPacket) error { pkts = append(pkts, p); return nil },
	}
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 7)
	l := oskernel.NewLoader(k, m.PageSize, 7)
	e := sim.New(m, k, l)
	rt := core.NewRuntime(e, cfg)
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatalf("protected run: %v", err)
	}
	return stats, pkts
}

// victimProgram is a multi-segment compute+memory loop whose checksum
// register and data buffer give fault injections something to corrupt.
func victimProgram(iters int64) *asm.Program {
	b := victimLoop(iters)
	b.AndI(1, 1, 255)
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	return b.MustBuild()
}

// victimLoop is victimProgram up to the end of its loop: checksum in x1,
// counter in x2, bound in x3, buffer base in x4.
func victimLoop(iters int64) *asm.Builder {
	b := asm.NewBuilder("victim")
	b.Space("buf", 32*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, iters)
	b.Addr(4, "buf")
	b.Label("loop")
	b.AndI(5, 2, 4095)
	b.ShlI(5, 5, 3)
	b.AndI(5, 5, 32760)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.Add(1, 1, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	return b
}

func smallSliceConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	return cfg
}

func TestSubmitTypedRejections(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) == 0 {
		t.Fatal("run exported no packets")
	}

	t.Run("version", func(t *testing.T) {
		x := NewExecutor(store, Options{})
		defer x.Close()
		bad := *pkts[0]
		bad.Version = packet.Version + 1
		if err := x.Submit(&bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("Submit(version %d) = %v, want ErrVersion", bad.Version, err)
		}
	})

	t.Run("self-inconsistent digest", func(t *testing.T) {
		x := NewExecutor(store, Options{})
		defer x.Close()
		bad := *pkts[0]
		bad.ConfigDigest++
		if err := x.Submit(&bad); !errors.Is(err, ErrConfigDigest) {
			t.Fatalf("Submit(bad digest) = %v, want ErrConfigDigest", err)
		}
	})

	t.Run("pinned digest", func(t *testing.T) {
		x := NewExecutor(store, Options{})
		defer x.Close()
		if err := x.Submit(pkts[0]); err != nil {
			t.Fatalf("first Submit: %v", err)
		}
		// A packet from a different (self-consistent) config must be
		// rejected once the stream is pinned.
		other := *pkts[0]
		other.Config.Quantum++
		other.ConfigDigest = other.Config.Digest()
		if err := x.Submit(&other); !errors.Is(err, ErrConfigDigest) {
			t.Fatalf("Submit(other config) = %v, want ErrConfigDigest", err)
		}
	})

	t.Run("closed", func(t *testing.T) {
		x := NewExecutor(store, Options{})
		x.Close()
		if err := x.Submit(pkts[0]); !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit after Close = %v, want ErrClosed", err)
		}
	})
}

// unrunnablePackets are well-formed, digest-consistent packets no checker
// can be built on or bounded by. Before Submit rejected them, the page-size
// ones panicked a worker goroutine in mem.NewAddressSpace, or in allocating
// the 2^62-byte zero page, and took the whole daemon down; the spinning one
// (no instruction ceiling, a loop bound and an end point it never reaches)
// held its worker forever.
func unrunnablePackets(pkts []*packet.CheckPacket) map[string]*packet.CheckPacket {
	pageSize := func(ps uint64) *packet.CheckPacket {
		bad := *pkts[1]
		bad.Config.PageSize = ps
		bad.ConfigDigest = bad.Config.Digest()
		return &bad
	}
	huge := pageSize(1 << 62) // one unbacked page, the whole VMA
	huge.Start.Pages = nil
	huge.Start.VMAs = []packet.VMA{{Base: 0, Length: 1 << 62, Prot: uint8(mem.ProtRW), Name: "huge"}}
	spin := *pkts[1] // starts mid-loop
	spin.Start.Regs.X[3] = 1 << 62
	spin.End.Branches = 1 << 62
	spin.InstrLimit = 0
	return map[string]*packet.CheckPacket{
		"page size zero":             pageSize(0),
		"page size not a power of 2": pageSize(3 << 12),
		"page size of 2^62":          huge,
		"no instruction limit":       &spin,
	}
}

func TestUnrunnablePacketsRejected(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) < 2 {
		t.Fatalf("run exported %d packets, need 2", len(pkts))
	}
	for name, bad := range unrunnablePackets(pkts) {
		bad := bad
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			type result struct {
				verdicts []Verdict
				err      error
			}
			done := make(chan result, 1)
			go func() {
				v, err := CheckAll(store, []*packet.CheckPacket{bad}, Options{Workers: 1, Metrics: reg})
				done <- result{v, err}
			}()
			// A regression is a stuck worker, so the test must not wait for it.
			select {
			case r := <-done:
				if !errors.Is(r.err, ErrUnrunnable) || !errors.Is(r.err, packet.ErrCorrupt) {
					t.Fatalf("CheckAll = %v, want ErrUnrunnable wrapping packet.ErrCorrupt", r.err)
				}
				if len(r.verdicts) != 0 {
					t.Fatalf("rejected packet still produced verdicts: %v", r.verdicts)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no rejection within 10s: the packet was admitted and its worker is stuck")
			}
			for _, m := range reg.Snapshot() {
				if m.Name == "paft_checkd_rejections_total" && m.Value != 1 {
					t.Errorf("rejections counter = %v, want 1", m.Value)
				}
			}
		})
	}
}

func TestMissingChunkBecomesInfraVerdict(t *testing.T) {
	_, _, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) == 0 {
		t.Fatal("run exported no packets")
	}
	// An empty store: every chunk reference misses, and the failure
	// surfaces as an infrastructure verdict — never as a detection.
	empty := pagestore.New(core.PageHashSeed)
	verdicts, err := CheckAll(empty, pkts[:1], Options{})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(verdicts))
	}
	v := verdicts[0]
	if v.OK || v.Infra == "" || v.ErrorKind != "" {
		t.Fatalf("verdict = %+v, want infra failure with no detection kind", v)
	}
	if !errors.Is(ErrMissingChunk, ErrMissingChunk) { // keep the sentinel referenced
		t.Fatal("unreachable")
	}
}

func TestVerdictsOrderedUnderConcurrency(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 3 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	verdicts, err := CheckAll(store, pkts, Options{Workers: 4})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	if len(verdicts) != len(pkts) {
		t.Fatalf("got %d verdicts for %d packets", len(verdicts), len(pkts))
	}
	for i, v := range verdicts {
		if v.Seq != i {
			t.Fatalf("verdict %d has seq %d; stream is unordered", i, v.Seq)
		}
		if v.Segment != pkts[i].Segment {
			t.Fatalf("verdict %d is for segment %d, packet is segment %d", i, v.Segment, pkts[i].Segment)
		}
		if !v.OK {
			t.Fatalf("clean run produced failing verdict: %v", v)
		}
	}
}

// TestPermanentlyMissingChunkRetriesBounded drops page chunks from an
// otherwise-complete store forever. The bound is one attempt: the packet is
// checked once, and its infrastructure verdict carries a typed
// ErrMissingChunk the caller can errors.Is against.
func TestPermanentlyMissingChunkRetriesBounded(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) == 0 {
		t.Fatal("run exported no packets")
	}
	pkt := pkts[0]
	if len(pkt.Start.Pages) < 2 {
		t.Fatalf("packet has %d start pages, need at least 2", len(pkt.Start.Pages))
	}

	// Evict two of the packet's page chunks permanently. Releasing until
	// reclaim drops the chunk no matter how many checkpoints shared it; a
	// chunk may back several pages of the start state, so count distinct
	// keys.
	dropped := 0
	seen := map[pagestore.Key]bool{}
	for _, pg := range pkt.Start.Pages {
		if seen[pg.Key] {
			continue
		}
		seen[pg.Key] = true
		for store.Contains(pg.Key) {
			store.Release(pg.Key)
		}
		if dropped++; dropped == 2 {
			break
		}
	}

	verdicts, err := CheckAll(store, pkts[:1], Options{})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(verdicts))
	}
	v := verdicts[0]
	if v.OK || v.Infra == "" || v.ErrorKind != "" {
		t.Fatalf("verdict = %+v, want infra failure with no detection kind", v)
	}
	if !errors.Is(v.InfraErr(), ErrMissingChunk) {
		t.Fatalf("InfraErr() = %v, want a wrapped ErrMissingChunk", v.InfraErr())
	}
}
