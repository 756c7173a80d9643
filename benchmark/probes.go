package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parallaft/internal/asm"
	"parallaft/internal/cache"
	"parallaft/internal/campaign"
	"parallaft/internal/checkd"
	"parallaft/internal/checkfarm"
	"parallaft/internal/compare"
	"parallaft/internal/core"
	"parallaft/internal/hashx"
	"parallaft/internal/lang"
	"parallaft/internal/machine"
	"parallaft/internal/mem"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/stats"
	"parallaft/internal/telemetry"
	wl "parallaft/internal/workload"
)

// The layer probes time calls into each module's public functions from
// outside, on inputs shaped like the workload that stresses the layer.
// Each is sized by a fixed count, not by a clock, so the counts it reports
// repeat exactly; together they take a few seconds.

// probeSize shapes the probes that need a whole run: the same programs as
// the workloads, shorter.
var probeSize = sizes{
	suiteNames: fullSize.suiteNames,
	suiteScale: 0.03,

	sweepIters: 15_000,

	injectNames: []string{"458.sjeng"},
	injectScale: 0.1,

	exportScale: fullSize.exportScale, // a packet's fixed cost only shows against real replay lengths
}

const probePages = 512 // the dirty_sweep guest's working set, in pages

// secs times fn.
func secs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// fastestOf5 times fn five times and keeps the fastest, the estimator the
// end-to-end metrics use: the probes are short, and interference only ever
// adds time.
func fastestOf5(fn func()) float64 {
	return min(secs(fn), secs(fn), secs(fn), secs(fn), secs(fn))
}

// allocKB reports the heap bytes fn allocates, in KB.
func allocKB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1024
}

// runProbes measures every per-layer metric except the harness's own. Each
// probe starts from a collected heap: what an earlier probe left behind
// would otherwise set the collector's pace, and with a large heap goal the
// allocator hands out memory the process has never touched, which costs
// several times what recycled memory does.
func runProbes(seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	for _, p := range []func(map[string]float64, int64) error{
		probeProc, probeCache, probeMem, probeHash, probeCompare, probeMachine,
		probeSimKernel, probeCore, probeStats, probeCampaign, probePagestore, probeOffload, probeGen,
	} {
		runtime.GC()
		if err := p(m, seed); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// touchedSpace maps and writes n pages, so every page has a private frame.
func touchedSpace(pageSize uint64, n int) *mem.AddressSpace {
	as := mem.NewAddressSpace(pageSize)
	if err := as.Map(0, uint64(n)*pageSize, mem.ProtRW, "arena"); err != nil {
		panic(err) // an empty address space has room at 0
	}
	for i := 0; i < n; i++ {
		as.StoreU64(uint64(i)*pageSize, uint64(i)+1) //nolint:errcheck // mapped RW above
	}
	return as
}

// touchAll stores one word in each of the first n pages.
func touchAll(as *mem.AddressSpace, n int, val uint64) {
	for i := 0; i < n; i++ {
		as.StoreU64(uint64(i)*as.PageSize()+8, val) //nolint:errcheck // mapped RW by touchedSpace
	}
}

func probeProc(m map[string]float64, seed int64) error {
	// The BenchmarkInterpreterDispatch kernel: a tight compute+memory loop.
	ab := asm.NewBuilder("dispatch")
	ab.MovI(1, 0)
	ab.MovI(2, 1)
	ab.MovI(3, 0)
	ab.MovI(4, 0)
	ab.Label("loop")
	ab.AddI(3, 3, 7)
	ab.AndI(5, 3, 4095)
	ab.ShlI(5, 5, 3)
	ab.Add(5, 4, 5)
	ab.Ld(6, 5, 0)
	ab.Add(6, 6, 3)
	ab.St(5, 0, 6)
	ab.Blt(1, 2, "loop")
	prog := ab.MustBuild()

	mc := machine.New(machine.AppleM2Like())
	p := proc.New(1, 1, "probe", prog.Code, touchedSpace(mc.PageSize, 4), seed)
	env := proc.ExecEnv{Machine: mc, Core: mc.BigCores()[0], Contention: 1, Fabric: 1}
	p.Run(env, 50_000)
	const budgets, perBudget = 100, 100_000
	t := fastestOf5(func() {
		for i := 0; i < budgets; i++ {
			p.Run(env, perBudget)
		}
	})
	m["proc.dispatch_minstr_per_s"] = budgets * perBudget / 1e6 / t

	big := proc.New(2, 2, "forker", prog.Code, touchedSpace(mc.PageSize, probePages), seed)
	const forks = 200
	var forkS float64
	for i := 0; i < forks; i++ {
		var child *proc.Process
		forkS += secs(func() { child = big.Fork(3, 3, "child", seed) })
		child.AS.Release()
	}
	m["proc.fork_us"] = forkS / forks * 1e6
	return nil
}

func probeCache(m map[string]float64, _ int64) error {
	cfg := machine.AppleM2Like()
	h := machine.New(cfg).Caches
	line := uint64(cfg.CacheCfg.LineSize)
	const accesses = 2_000_000

	t := fastestOf5(func() {
		for i := uint64(0); i < accesses; i++ {
			h.Access(0, 1, (i&63)*line)
		}
	})
	m["cache.access_hit_ns"] = t / accesses * 1e9

	// Strided over four times the big cluster's L2, so every access misses.
	span := 4 * uint64(cfg.CacheCfg.L2[0].SizeBytes(cfg.CacheCfg.LineSize))
	t = fastestOf5(func() {
		for i, addr := 0, uint64(0); i < accesses; i++ {
			h.Access(0, 1, addr)
			if addr += line; addr >= span {
				addr = 0
			}
		}
	})
	m["cache.access_miss_ns"] = t / accesses * 1e9

	const flushes, resident = 200, 4096
	var flushS float64
	for i := 0; i < flushes; i++ {
		for a := uint64(0); a < resident; a++ {
			h.Access(0, 7, a*line)
		}
		flushS += secs(func() { h.FlushASID(7) })
	}
	m["cache.flush_asid_us"] = flushS / flushes * 1e6

	isBig := make([]bool, len(cfg.Cores))
	cluster := make([]int, len(cfg.Cores))
	for i, c := range cfg.Cores {
		isBig[i], cluster[i] = c.Kind == machine.Big, c.Cluster
	}
	const news = 50
	t = fastestOf5(func() {
		for i := 0; i < news; i++ {
			cache.New(cfg.CacheCfg, isBig, cluster)
		}
	})
	m["cache.new_us"] = t / news * 1e6
	return nil
}

func probeMem(m map[string]float64, _ int64) error {
	const pageSize = 16 * 1024
	as := touchedSpace(pageSize, 4)
	const accesses = 2_000_000
	t := fastestOf5(func() {
		for i := uint64(0); i < accesses; i++ {
			as.LoadU64((i * 8) & (4*pageSize - 1)) //nolint:errcheck // mapped
		}
	})
	m["mem.load_ns"] = t / accesses * 1e9
	t = fastestOf5(func() {
		for i := uint64(0); i < accesses; i++ {
			as.StoreU64((i*8)&(4*pageSize-1), i) //nolint:errcheck // mapped, private
		}
	})
	m["mem.store_ns"] = t / accesses * 1e9

	// The dirty_sweep shape: fork a 512-page space, then store once to
	// every page of the parent, so each store copies its page.
	big := touchedSpace(pageSize, probePages)
	const rounds = 20
	var forkS, cowS, scanS, cowKB float64
	var dirty []uint64
	for r := 0; r < rounds; r++ {
		var child *mem.AddressSpace
		forkS += secs(func() { child = big.Fork() })
		cowKB += allocKB(func() {
			cowS += secs(func() { touchAll(big, probePages, uint64(r)) })
		})
		scanS += secs(func() {
			dirty = big.AppendDirtyPages(mem.DirtyMapCount, dirty[:0])
			dirty = mem.AppendDiffFrames(child, big, dirty[:0])
		})
		child.Release()
	}
	m["mem.fork_us_per_kpage"] = forkS / rounds * 1e6 * 1000 / probePages
	m["mem.store_cow_us"] = cowS / (rounds * probePages) * 1e6
	m["mem.alloc_kb_per_cow"] = cowKB / (rounds * probePages)
	// One round scans the space twice: AppendDirtyPages, then AppendDiffFrames.
	m["mem.dirty_scan_us_per_kpage"] = scanS / rounds * 1e6 * 1000 / (2 * probePages)
	return nil
}

func probeHash(m map[string]float64, _ int64) error {
	const pageSize, pages, rounds = 16 * 1024, 64, 300
	buf := make([]byte, pages*pageSize)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	var sink uint64
	t := fastestOf5(func() {
		for r := 0; r < rounds; r++ {
			for p := 0; p < pages; p++ {
				sink += hashx.Sum64(core.PageHashSeed, buf[p*pageSize:(p+1)*pageSize])
			}
		}
	})
	_ = sink
	m["hashx.page_gbps"] = rounds * pages * pageSize / t / 1e9
	return nil
}

func probeCompare(m map[string]float64, _ int64) error {
	const pageSize, pages, dirtyPages, rounds = 16 * 1024, 128, 64, 200
	base := touchedSpace(pageSize, pages)
	req := compare.Request{Base: base, Discovery: compare.FrameDiff, CheckerMode: mem.DirtyMapCount, Seed: core.PageHashSeed}
	var c compare.Comparator

	// Distinct frames: reference and checker each wrote the same 64 pages.
	ref, chk := base.Fork(), base.Fork()
	req.Ref, req.Chk = ref, chk
	var dirtyS float64
	for r := 0; r < rounds; r++ {
		// Rewriting invalidates the frames' memoized hashes, as a fresh
		// segment's writes do.
		touchAll(ref, dirtyPages, uint64(r))
		touchAll(chk, dirtyPages, uint64(r))
		dirtyS += secs(func() {
			if res := c.Run(req); res.Mismatch != nil {
				panic("compare probe: equal spaces compared unequal")
			}
		})
	}
	m["compare.run_dirty_us"] = dirtyS / rounds * 1e6

	// Same frames: the checker is a fork of the reference, so every dirty
	// page is proven equal by identity and nothing is hashed.
	req.Chk = ref.Fork()
	t := fastestOf5(func() {
		for r := 0; r < rounds; r++ {
			c.Run(req)
		}
	})
	m["compare.run_identity_us"] = t / rounds * 1e6
	return nil
}

func probeMachine(m map[string]float64, _ int64) error {
	const news = 50
	m["machine.new_alloc_kb"] = allocKB(func() { machine.New(machine.AppleM2Like()) })
	t := fastestOf5(func() {
		for i := 0; i < news; i++ {
			machine.New(machine.AppleM2Like())
		}
	})
	m["machine.new_us"] = t / news * 1e6
	return nil
}

// probeSimKernel covers sim (an unprotected run) and oskernel (a run that
// is nothing but syscalls).
func probeSimKernel(m map[string]float64, seed int64) error {
	_, progs, err := genPrograms(nil, nil, "429.mcf", 0.1)
	if err != nil {
		return err
	}
	var base *sim.BaselineResult
	t := secs(func() { base, err = runBaseline(nil, nil, progs[0], seed) })
	if err != nil {
		return err
	}
	m["sim.baseline_minstr_per_s"] = float64(base.Instrs) / 1e6 / t

	_, progs, err = genPrograms(nil, nil, "stress.getpid", 1)
	if err != nil {
		return err
	}
	// The protected run counts the program's syscalls exactly; the timed
	// run is the untraced one.
	st, err := core.NewRuntime(newEngine(seed), core.DefaultConfig()).Run(progs[0])
	if err != nil {
		return err
	}
	t = secs(func() { _, err = runBaseline(nil, nil, progs[0], seed) })
	if err != nil {
		return err
	}
	m["oskernel.syscalls_per_s"] = float64(st.SyscallsTraced) / t
	return nil
}

// probeCore covers core, telemetry and the two compare ratios that only a
// whole run's RunStats carry (429.mcf's: read-mostly, so pages are shared).
func probeCore(m map[string]float64, seed int64) error {
	_, progs, err := genPrograms(nil, nil, "429.mcf", 0.1)
	if err != nil {
		return err
	}
	mcf := progs[0]
	exportCfg := core.DefaultConfig()
	exportCfg.Export = &packet.Exporter{Store: pagestore.New(core.PageHashSeed), Sink: func(*packet.CheckPacket) error { return nil }}
	// Three interleaved rounds of the three ways to run one program; the
	// ratios are between medians.
	var baseS, plainS, exportS []float64
	var mcfStats *core.RunStats
	for round := 0; round < 3; round++ {
		baseS = append(baseS, secs(func() { _, err = runBaseline(nil, nil, mcf, seed) }))
		if err != nil {
			return err
		}
		for _, v := range []struct {
			cfg core.Config
			s   *[]float64
		}{{core.DefaultConfig(), &plainS}, {exportCfg, &exportS}} {
			*v.s = append(*v.s, secs(func() { mcfStats, err = core.NewRuntime(newEngine(seed), v.cfg).Run(mcf) }))
			if err != nil {
				return err
			}
		}
	}
	m["core.protect_host_ratio"] = median(plainS) / median(baseS)
	m["core.export_overhead_ratio"] = median(exportS) / median(plainS)
	m["compare.identity_skip_ratio"] = ratio(float64(mcfStats.IdentitySkips), float64(mcfStats.DirtyPagesHashed))
	m["compare.hash_cache_hit_ratio"] = ratio(float64(mcfStats.HashCacheHits), 2*float64(mcfStats.DirtyPagesHashed-mcfStats.IdentitySkips))

	w, err := setupSweep(seed, probeSize, nil, nil)
	if err != nil {
		return err
	}
	sweep := w.(*dirtySweep)
	var st *core.RunStats
	sweepS := secs(func() { st, err = core.NewRuntime(newEngine(seed), sweepConfig()).Run(sweep.prog) })
	if err != nil {
		return err
	}
	m["core.segments_per_s"] = float64(len(st.Segments)) / sweepS
	m["core.cow_copies"] = float64(st.COWCopies)
	m["core.bytes_hashed"] = float64(st.BytesHashed)

	onCfg := sweepConfig()
	onCfg.Metrics = telemetry.NewRegistry()
	onCfg.Spans = telemetry.NewSpanRecorder(1 << 16)
	onS := secs(func() { _, err = core.NewRuntime(newEngine(seed), onCfg).Run(sweep.prog) })
	if err != nil {
		return err
	}
	m["telemetry.on_overhead_ratio"] = onS / sweepS
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeStats attributes the suite's wall time to its modes and programs.
func probeStats(m map[string]float64, seed int64) error {
	r := stats.NewRunner()
	r.Scale, r.Seed, r.Parallel = probeSize.suiteScale, seed, 1
	modes := []stats.Mode{stats.ModeBaseline, stats.ModeParallaft, stats.ModeRAFT}
	byMode := make([]float64, len(modes))
	var total float64
	for _, name := range probeSize.suiteNames {
		var perWorkload float64
		for i, mode := range modes {
			var err error
			t := secs(func() { _, err = r.RunWorkload(wl.Get(name), mode) })
			if err != nil {
				return err
			}
			byMode[i] += t
			perWorkload += t
		}
		m["stats.workload_s."+name] = perWorkload
		total += perWorkload
	}
	for i, mode := range modes {
		m["stats.mode_share."+mode.String()] = byMode[i] / total
	}
	return nil
}

// probeCampaign covers campaign and inject: one program's injection
// campaign serially and on two workers, and the share of a trial spent
// re-running the prefix before the injected segment.
func probeCampaign(m map[string]float64, seed int64) error {
	const jobs = 20_000
	t := fastestOf5(func() {
		campaign.Run(2, jobs, func(i int) (int, error) { return i, nil })
	})
	m["campaign.job_overhead_us"] = t / jobs * 1e6

	w, err := setupInject(seed, probeSize, nil, nil)
	if err != nil {
		return err
	}
	c := w.(*injectCampaign)
	_, progs, err := genPrograms(nil, nil, c.names[0], c.scale)
	if err != nil {
		return err
	}
	prog := progs[0]

	var prof *core.RunStats
	profS := secs(func() { prof, err = core.NewRuntime(newEngine(seed), core.DefaultConfig()).Run(prog) })
	if err != nil {
		return err
	}
	serialS := secs(func() { _, err = c.campaignFor(prog, 1).Run() })
	if err != nil {
		return err
	}
	rep, err := c.campaignFor(prog, injectWorkers).Run()
	if err != nil {
		return err
	}
	twoS := secs(func() { rep, err = c.campaignFor(prog, injectWorkers).Run() })
	if err != nil {
		return err
	}
	m["campaign.speedup_2w"] = serialS / twoS
	m["inject.profile_run_share"] = profS / serialS
	m["inject.trial_ms"] = (serialS - profS) / float64(len(rep.Trials)) * 1000

	// Guest time before the injected segment over the whole run, averaged
	// over trials: what forking trials from a shared prefix could save.
	var whole float64
	before := map[int]float64{} // by segment index
	for _, s := range prof.Segments {
		before[s.Index] = whole
		whole += s.MainNs
	}
	var prefix float64
	for _, t := range rep.Trials {
		prefix += before[t.Segment] / whole
	}
	m["inject.prefix_share"] = ratio(prefix, float64(len(rep.Trials)))
	return nil
}

// probePagestore puts, gets and serializes 2048 distinct 16 KiB pages.
func probePagestore(m map[string]float64, _ int64) error {
	const pageSize, pages = 16 * 1024, 2048
	buf := make([]byte, pages*pageSize)
	for i := range buf {
		buf[i] = byte(i>>14) ^ byte(i*131)
	}
	fresh := pagestore.New(core.PageHashSeed)
	keys := make([]pagestore.Key, 0, pages)
	putAll := func() {
		keys = keys[:0]
		for p := 0; p < pages; p++ {
			keys = append(keys, fresh.Put(buf[p*pageSize:(p+1)*pageSize]))
		}
	}
	m["pagestore.put_new_mbps"] = pages * pageSize / 1e6 / secs(putAll)
	m["pagestore.put_dup_mbps"] = pages * pageSize / 1e6 / fastestOf5(putAll)
	const gets = 1_000_000
	t := fastestOf5(func() {
		for i := 0; i < gets; i++ {
			fresh.Get(keys[i%pages])
		}
	})
	m["pagestore.get_ns"] = t / gets * 1e9
	var err error
	t = fastestOf5(func() {
		var ser bytes.Buffer
		if _, err = fresh.WriteTo(&ser); err == nil {
			_, err = pagestore.ReadFrom(&ser)
		}
	})
	m["pagestore.serialize_mbps"] = pages * pageSize / 1e6 / t
	return err
}

// probeOffload covers packet, checkd and checkfarm over one export, the
// workloads' own.
func probeOffload(m map[string]float64, seed int64) error {
	x, err := buildExport(seed, probeSize, nil, nil)
	if err != nil {
		return err
	}
	n := float64(len(x.pkts))
	mb := float64(x.encBytes) / 1e6

	// packet
	t := fastestOf5(func() {
		for _, p := range x.pkts {
			packet.Encode(p)
		}
	})
	m["packet.encode_mbps"] = mb / t
	t = fastestOf5(func() {
		for _, b := range x.enc {
			if _, err := packet.Decode(b); err != nil {
				panic(err) // these bytes came from Encode
			}
		}
	})
	m["packet.decode_mbps"] = mb / t
	m["packet.bytes_per_packet"] = float64(x.encBytes) / n

	st := x.store.Stats()
	m["pagestore.dedup_ratio"] = ratio(float64(st.DedupHits), float64(st.Puts))

	// checkd, in process, one packet at a time. A packet's time is fitted
	// against the instructions it replays and the pages its start state
	// maps; what does not scale with instructions — machine and
	// address-space rebuild, page copies, end-state hashing — is the fixed
	// cost a packet pays however short its segment is.
	var instrs, pageCount, us []float64
	var allS float64
	for i, p := range x.pkts {
		check := func() { _, err = checkd.CheckAll(x.store, x.pkts[i:i+1], offloadOpts) }
		t := min(secs(check), secs(check), secs(check)) // one slow packet would tilt the fit
		if err != nil {
			return err
		}
		allS += t
		instrs = append(instrs, float64(p.MainInstrs))
		pageCount = append(pageCount, float64(len(p.Start.Pages)))
		us = append(us, t*1e6)
	}
	_, perInstr, _ := fitPlane(instrs, pageCount, us)
	fixed := (allS*1e6 - perInstr*x.minstr*1e6) / n
	m["checkd.check_us_per_packet"] = allS / n * 1e6
	m["checkd.fixed_us_per_packet"] = fixed
	m["checkd.fixed_share"] = fixed * n / (allS * 1e6)

	// checkd, over its transports
	reg := telemetry.NewRegistry()
	if err := probeTransport(m, seed, reg); err != nil {
		return err
	}

	// checkfarm
	run, err := streamFarm(x.store, x.pkts, farmPasses, checkfarm.Options{Metrics: reg}, nil, nil)
	if err != nil {
		return err
	}
	farmS := secs(func() {
		run, err = streamFarm(x.store, x.pkts, farmPasses, checkfarm.Options{Metrics: reg}, nil, nil)
	})
	if err != nil {
		return err
	}
	var uploadBytes float64
	for _, ns := range run.nodes {
		uploadBytes += float64(ns.UploadBytes)
	}
	counters := map[string]float64{}
	for _, s := range reg.Snapshot() {
		counters[s.Name] = s.Value
	}
	hits := counters["paft_farm_chunk_cache_hits_total"]
	m["checkfarm.upload_mb"] = uploadBytes / 1e6
	m["checkfarm.cache_hit_ratio"] = ratio(hits, hits+counters["paft_farm_chunk_uploads_total"])
	m["checkfarm.redispatches"] = counters["paft_farm_redispatches_total"]
	m["checkfarm.efficiency"] = (float64(len(run.verdicts)) / farmS) / (2 * n / allS)
	m["checkfarm.latency_p90_ms"], _ = percentile(run.latMs, 90)
	m["checkfarm.latency_p99_ms"], _ = percentile(run.latMs, 99)
	m["checkd.retries"] = counters["paft_checkd_chunk_retries_total"]
	return nil
}

// checkOverPackets caps the CheckOver session. CheckOver sends every packet
// before it reads a verdict, and the server stops reading once its verdict
// writes fill the socket buffer — a longer session deadlocks (see README,
// "found while building").
const checkOverPackets = 16

// probeTransport times a heartbeat echo over loopback TCP and a whole
// CheckOver session (one program's store and packets) over a Unix socket.
func probeTransport(m map[string]float64, seed int64, reg *telemetry.Registry) error {
	one := probeSize
	one.exportNames = []string{"429.mcf"}
	x, err := buildExport(seed, one, nil, nil)
	if err != nil {
		return err
	}
	pkts := x.pkts[:min(checkOverPackets, len(x.pkts))]

	opts := checkd.Options{Workers: 1, Metrics: reg}
	node, err := startNode("tcp", "127.0.0.1:0", opts)
	if err != nil {
		return err
	}
	defer node.stop()
	conn, err := net.Dial("tcp", node.addr)
	if err != nil {
		return err
	}
	const pings = 2000
	t := secs(func() {
		for i := 0; i < pings && err == nil; i++ {
			if err = checkd.WriteFrame(conn, checkd.FrameHeartbeat, []byte("ping")); err == nil {
				_, _, err = checkd.ReadFrame(conn)
			}
		}
	})
	conn.Close()
	if err != nil {
		return fmt.Errorf("heartbeat echo: %w", err)
	}
	m["checkd.frame_roundtrip_us"] = t / pings * 1e6

	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	local, err := startNode("unix", filepath.Join(dir, fmt.Sprintf("probe-%d.sock", os.Getpid())), opts)
	if err != nil {
		return err
	}
	defer local.stop()
	uc, err := net.Dial("unix", local.addr)
	if err != nil {
		return err
	}
	defer uc.Close()
	var vs []checkd.Verdict
	t = secs(func() { vs, err = checkd.CheckOver(uc, x.store, pkts) })
	if err != nil {
		return err
	}
	m["checkd.checkover_packets_per_s"] = float64(len(vs)) / t
	return nil
}

// probeGen times program generation and compilation for the suite's five
// programs and the dirty_sweep guest: the workload, lang and asm layers.
func probeGen(m map[string]float64, _ int64) error {
	var err error
	t := fastestOf5(func() {
		for _, name := range fullSize.suiteNames {
			wl.Get(name).Gen(fullSize.suiteScale)
		}
		_, err = lang.Compile("dirty_sweep", sweepProgramSource(fullSize.sweepIters))
	})
	m["workload.gen_ms"] = t * 1000
	return err
}
