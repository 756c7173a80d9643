// Package machine models the simulated heterogeneous processor: big and
// little cores grouped into clusters, per-core DVFS frequency ladders with a
// power figure at each operating point, an instruction cost model, and
// energy integration.
//
// Two presets mirror the paper's two platforms:
//
//   - AppleM2Like: 4 big + 4 little cores, separate L2 per cluster,
//     separate voltage domains (little cores are several times more
//     efficient per unit of work), 16 KiB pages.
//   - IntelLike: 8 P-cores + 12 E-cores, E-cores share the package voltage
//     domain so their efficiency advantage is small, a large uncore/static
//     power term, 4 KiB pages (§5.8).
//
// All capacities and latencies are scaled down from the silicon by the
// simulation scale factor documented in DESIGN.md so that runs complete in
// test time while preserving every ratio the paper's evaluation depends on.
package machine

import (
	"fmt"

	"parallaft/internal/cache"
	"parallaft/internal/isa"
)

// CoreKind distinguishes big (performance) from little (efficiency) cores.
type CoreKind uint8

// Core kinds.
const (
	Big CoreKind = iota
	Little
	numKinds
)

// String returns "big" or "little".
func (k CoreKind) String() string {
	if k == Big {
		return "big"
	}
	return "little"
}

// FreqPoint is one DVFS operating point.
type FreqPoint struct {
	GHz      float64
	ActiveMW float64 // power while executing at this point
}

// Core is one simulated CPU core.
type Core struct {
	ID      int
	Kind    CoreKind
	Cluster int
	Ladder  []FreqPoint // sorted ascending by GHz
	IdleMW  float64

	freqIdx  int
	activeNs []float64 // active time accumulated at each ladder point

	// Observation-only attribution state (see activity.go): the current
	// activity class and the optional charge observer. Neither feeds the
	// cost or energy model.
	act  Activity
	sink ActiveSink
}

// FreqGHz returns the current operating frequency.
func (c *Core) FreqGHz() float64 { return c.Ladder[c.freqIdx].GHz }

// MaxGHz returns the top of the frequency ladder.
func (c *Core) MaxGHz() float64 { return c.Ladder[len(c.Ladder)-1].GHz }

// FreqIndex returns the current ladder index.
func (c *Core) FreqIndex() int { return c.freqIdx }

// SetFreqIndex selects a DVFS point; out-of-range values are clamped.
func (c *Core) SetFreqIndex(i int) {
	if i < 0 {
		i = 0
	}
	if i >= len(c.Ladder) {
		i = len(c.Ladder) - 1
	}
	c.freqIdx = i
}

// SetMaxFreq moves the core to its highest operating point.
func (c *Core) SetMaxFreq() { c.freqIdx = len(c.Ladder) - 1 }

// AccountActive records ns of execution at the current operating point. An
// attached sink observes the identical charge — same float, same order — so
// the attribution ledger can mirror the book bit for bit.
func (c *Core) AccountActive(ns float64) {
	c.activeNs[c.freqIdx] += ns
	if c.sink != nil {
		c.sink.OnActive(c, c.act, c.freqIdx, ns)
	}
}

// ActiveNs returns the total active nanoseconds across all points.
func (c *Core) ActiveNs() float64 {
	var t float64
	for _, ns := range c.activeNs {
		t += ns
	}
	return t
}

// ActiveEnergyJ returns the dynamic energy consumed by the core so far.
func (c *Core) ActiveEnergyJ() float64 {
	var j float64
	for i, ns := range c.activeNs {
		j += ns * 1e-9 * c.Ladder[i].ActiveMW * 1e-3
	}
	return j
}

// ResetEnergy zeroes the core's activity accounting.
func (c *Core) ResetEnergy() {
	for i := range c.activeNs {
		c.activeNs[i] = 0
	}
}

// CostModel maps instruction cost classes and cache levels to time.
type CostModel struct {
	// ClassCycles is the base cycle cost of each cost class per core kind;
	// cycles are converted to time at the core's current frequency, so DVFS
	// slows execution and big cores' wider pipelines show as fewer cycles.
	ClassCycles [numKinds][isa.NumCostClasses]float64
	// LevelExtraCycles is the additional cycle cost when a memory access is
	// satisfied at the given level (L1 hit is folded into CostMem's base).
	LevelExtraCycles [numKinds][cache.NumLevels]float64
	// DRAMExtraNs is the frequency-independent part of a DRAM access, paid
	// on top of LevelExtraCycles[kind][DRAM] and multiplied by the current
	// memory-contention factor.
	DRAMExtraNs float64
	// DRAMKindFactor models memory-level parallelism: little cores sustain
	// fewer outstanding misses, so DRAM-bound code pays proportionally more
	// per access. This is what makes memory-intensive workloads slow down
	// 4x+ on little cores while compute fits in ~2x (§4.5).
	DRAMKindFactor [numKinds]float64
	// StoreDRAMFactor additionally penalises stores that miss to DRAM:
	// little cores have small store buffers and stall on write drains,
	// which is why the write-heavy lbm is the paper's worst case (§5.3).
	StoreDRAMFactor [numKinds]float64
}

// InstrTimeNs returns the wall time of one instruction of the given class on
// a core of the given kind at freqGHz, with the memory access (if any)
// satisfied at lvl, under the given DRAM contention factor (1.0 = no
// contention).
func (m *CostModel) InstrTimeNs(kind CoreKind, freqGHz float64, class isa.CostClass, lvl cache.Level, hasMem, isStore bool, contention float64) float64 {
	cycles := m.ClassCycles[kind][class]
	ns := cycles / freqGHz
	if hasMem {
		ns += m.LevelExtraCycles[kind][lvl] / freqGHz
		if lvl == cache.DRAM {
			f := m.DRAMKindFactor[kind]
			if isStore {
				f *= m.StoreDRAMFactor[kind]
			}
			ns += m.DRAMExtraNs * f * contention
		}
	}
	return ns
}

// PowerModel holds the non-core power terms.
type PowerModel struct {
	SocStaticMW  float64 // always-on SoC power (fabric, uncore)
	DRAMStaticMW float64 // DRAM background power
	DRAMPJAccess float64 // energy per DRAM line transfer, picojoules
}

// Config assembles a machine.
type Config struct {
	Name     string
	Cores    []Core // templates; IDs are assigned by New
	Cost     CostModel
	Power    PowerModel
	CacheCfg cache.Config
	PageSize uint64
	// SliceByInstructions selects instruction-based rather than cycle-based
	// slicing, as the paper does on Intel (§5.8, footnote 14).
	SliceByInstructions bool
	// SeparateVoltageDomains records whether little cores can scale voltage
	// independently (true on Apple, false on Intel) — documentation only;
	// the effect is baked into the ladders' power numbers.
	SeparateVoltageDomains bool
}

// Machine is the assembled simulated processor.
type Machine struct {
	Name   string
	Cores  []*Core
	Caches *cache.Hierarchy
	Cost   CostModel
	Power  PowerModel

	PageSize            uint64
	SliceByInstructions bool

	dramAccesses uint64
}

// New assembles a machine from a configuration.
func New(cfg Config) *Machine {
	m := &Machine{
		Name:                cfg.Name,
		Cost:                cfg.Cost,
		Power:               cfg.Power,
		PageSize:            cfg.PageSize,
		SliceByInstructions: cfg.SliceByInstructions,
	}
	isBig := make([]bool, len(cfg.Cores))
	cluster := make([]int, len(cfg.Cores))
	for i := range cfg.Cores {
		c := cfg.Cores[i] // copy
		c.ID = i
		c.activeNs = make([]float64, len(c.Ladder))
		c.freqIdx = len(c.Ladder) - 1
		m.Cores = append(m.Cores, &c)
		isBig[i] = c.Kind == Big
		cluster[i] = c.Cluster
	}
	m.Caches = cache.New(cfg.CacheCfg, isBig, cluster)
	return m
}

// CoresOf returns the cores of the given kind, in ID order.
func (m *Machine) CoresOf(kind CoreKind) []*Core {
	var out []*Core
	for _, c := range m.Cores {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// BigCores returns the performance cores.
func (m *Machine) BigCores() []*Core { return m.CoresOf(Big) }

// LittleCores returns the efficiency cores.
func (m *Machine) LittleCores() []*Core { return m.CoresOf(Little) }

// CountDRAMAccess accumulates DRAM traffic for energy accounting.
func (m *Machine) CountDRAMAccess() { m.dramAccesses++ }

// DRAMAccesses returns the DRAM transfer count so far.
func (m *Machine) DRAMAccesses() uint64 { return m.dramAccesses }

// ResetEnergy zeroes all energy accounting (core activity and DRAM counts).
func (m *Machine) ResetEnergy() {
	for _, c := range m.Cores {
		c.ResetEnergy()
	}
	m.dramAccesses = 0
}

// Reset returns the machine to the state New left it in — empty books, every
// core at the top of its ladder, cold caches — without reallocating or
// clearing the cache tag arrays, for an owner that keeps one machine across
// runs. Activity classes and sinks are left to whoever attached them.
func (m *Machine) Reset() {
	m.ResetEnergy()
	for _, c := range m.Cores {
		c.SetMaxFreq()
	}
	m.Caches.Reset()
}

// EnergyJ integrates total energy over a run of wallNs nanoseconds: dynamic
// core energy at each operating point, idle core power, SoC and DRAM static
// power, and per-access DRAM energy. This mirrors the paper's SMC / RAPL
// measurements of SoC+DRAM energy (§5.1, §5.8).
func (m *Machine) EnergyJ(wallNs float64) float64 {
	var j float64
	for _, c := range m.Cores {
		j += c.ActiveEnergyJ()
		idleNs := wallNs - c.ActiveNs()
		if idleNs > 0 {
			j += idleNs * 1e-9 * c.IdleMW * 1e-3
		}
	}
	j += wallNs * 1e-9 * (m.Power.SocStaticMW + m.Power.DRAMStaticMW) * 1e-3
	j += float64(m.dramAccesses) * m.Power.DRAMPJAccess * 1e-12
	return j
}

// EnergyBreakdown decomposes EnergyJ for diagnostics and the energy
// experiments' reporting.
type EnergyBreakdown struct {
	BigActiveJ    float64
	LittleActiveJ float64
	IdleJ         float64
	StaticJ       float64
	DRAMDynJ      float64
}

// Total sums the components.
func (b EnergyBreakdown) Total() float64 {
	return b.BigActiveJ + b.LittleActiveJ + b.IdleJ + b.StaticJ + b.DRAMDynJ
}

// EnergyBreakdownJ returns the decomposed energy for a run of wallNs.
func (m *Machine) EnergyBreakdownJ(wallNs float64) EnergyBreakdown {
	var b EnergyBreakdown
	for _, c := range m.Cores {
		if c.Kind == Big {
			b.BigActiveJ += c.ActiveEnergyJ()
		} else {
			b.LittleActiveJ += c.ActiveEnergyJ()
		}
		idleNs := wallNs - c.ActiveNs()
		if idleNs > 0 {
			b.IdleJ += idleNs * 1e-9 * c.IdleMW * 1e-3
		}
	}
	b.StaticJ = wallNs * 1e-9 * (m.Power.SocStaticMW + m.Power.DRAMStaticMW) * 1e-3
	b.DRAMDynJ = float64(m.dramAccesses) * m.Power.DRAMPJAccess * 1e-12
	return b
}

// String identifies the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s (%d big + %d little cores, %d B pages)",
		m.Name, len(m.BigCores()), len(m.LittleCores()), m.PageSize)
}

func defaultCost() CostModel {
	cm := CostModel{DRAMExtraNs: 36}
	cm.ClassCycles[Big] = [isa.NumCostClasses]float64{
		isa.CostSimple: 2, isa.CostMul: 6, isa.CostDiv: 24,
		isa.CostFP: 6, isa.CostFDiv: 30, isa.CostVec: 4,
		isa.CostMem: 4, isa.CostMemVec: 6, isa.CostSys: 60,
	}
	cm.ClassCycles[Little] = [isa.NumCostClasses]float64{
		isa.CostSimple: 3, isa.CostMul: 9, isa.CostDiv: 36,
		isa.CostFP: 9, isa.CostFDiv: 48, isa.CostVec: 8,
		isa.CostMem: 6, isa.CostMemVec: 12, isa.CostSys: 80,
	}
	cm.LevelExtraCycles[Big] = [cache.NumLevels]float64{cache.L1Hit: 0, cache.L2Hit: 14, cache.DRAM: 30}
	cm.LevelExtraCycles[Little] = [cache.NumLevels]float64{cache.L1Hit: 0, cache.L2Hit: 12, cache.DRAM: 24}
	// Big out-of-order cores overlap misses (effective latency well below
	// a serialised access); little cores sustain very few outstanding
	// misses. The ratio yields the paper's 4-8x little-core slowdown on
	// memory-bound code versus ~2x on compute (§4.5).
	cm.DRAMKindFactor = [numKinds]float64{Big: 0.5, Little: 3.8}
	cm.StoreDRAMFactor = [numKinds]float64{Big: 1.0, Little: 2.2}
	return cm
}

// AppleM2Like returns the scaled Apple-M2-style configuration used for the
// main evaluation: 4 big cores at up to 3.5 GHz, 4 little cores at up to
// 2.4 GHz on a separate voltage domain, per-cluster shared L2, 16 KiB pages.
func AppleM2Like() Config {
	bigLadder := []FreqPoint{
		{GHz: 1.0, ActiveMW: 600},
		{GHz: 1.5, ActiveMW: 1100},
		{GHz: 2.0, ActiveMW: 1750},
		{GHz: 2.8, ActiveMW: 2900},
		{GHz: 3.5, ActiveMW: 4400},
	}
	// Separate voltage domain: the little ladder reaches very low power at
	// low frequency, giving the strong energy advantage the paper exploits.
	littleLadder := []FreqPoint{
		{GHz: 0.6, ActiveMW: 42},
		{GHz: 1.0, ActiveMW: 88},
		{GHz: 1.4, ActiveMW: 155},
		{GHz: 1.9, ActiveMW: 265},
		{GHz: 2.4, ActiveMW: 420},
	}
	var cores []Core
	for i := 0; i < 4; i++ {
		cores = append(cores, Core{Kind: Big, Cluster: 0, Ladder: bigLadder, IdleMW: 25})
	}
	for i := 0; i < 4; i++ {
		cores = append(cores, Core{Kind: Little, Cluster: 1, Ladder: littleLadder, IdleMW: 6})
	}
	return Config{
		Name:  "apple-m2-like",
		Cores: cores,
		Cost:  defaultCost(),
		// DRAMPJAccess is scaled with the simulation time scale so that
		// DRAM dynamic energy keeps its silicon-realistic share (~10-20 %
		// of total on memory-bound runs) despite the 10⁴x shorter runs.
		Power: PowerModel{SocStaticMW: 350, DRAMStaticMW: 250, DRAMPJAccess: 2.5},
		CacheCfg: cache.Config{
			LineSize: 64,
			L1Big:    cache.Geometry{Sets: 128, Ways: 8}, // 64 KiB
			L1Little: cache.Geometry{Sets: 64, Ways: 4},  // 16 KiB
			L2: []cache.Geometry{
				{Sets: 2048, Ways: 16}, // big cluster: 2 MiB (16 MiB scaled)
				{Sets: 2048, Ways: 8},  // little cluster: 1 MiB (4 MiB scaled)
			},
		},
		PageSize:               16 * 1024,
		SeparateVoltageDomains: true,
	}
}

// BigOnly returns the Apple preset with the little cluster removed: a
// homogeneous big-core machine. Parallaft degenerates gracefully — checkers
// are placed directly on spare big cores, there is no migration target and
// no little DVFS domain to pace.
func BigOnly() Config {
	cfg := AppleM2Like()
	var bigs []Core
	for _, c := range cfg.Cores {
		if c.Kind == Big {
			bigs = append(bigs, c)
		}
	}
	cfg.Cores = bigs
	cfg.Name = "apple-big-only"
	return cfg
}

// IntelLike returns the scaled Intel-Core-i7-14700-style configuration for
// the §5.8 experiment: E-cores share the package voltage domain (little
// power savings), a large uncore static term, 4 KiB pages, and slicing by
// instruction count rather than cycles.
func IntelLike() Config {
	pLadder := []FreqPoint{
		{GHz: 1.6, ActiveMW: 2200},
		{GHz: 2.5, ActiveMW: 3900},
		{GHz: 3.4, ActiveMW: 6100},
		{GHz: 4.2, ActiveMW: 8600},
		{GHz: 5.0, ActiveMW: 12000},
	}
	// No separate voltage domain: E-core power scales poorly at low
	// frequency because voltage is pinned by the P-cluster.
	eLadder := []FreqPoint{
		{GHz: 1.2, ActiveMW: 1300},
		{GHz: 1.8, ActiveMW: 1900},
		{GHz: 2.4, ActiveMW: 2600},
		{GHz: 3.0, ActiveMW: 3400},
		{GHz: 3.6, ActiveMW: 4300},
	}
	var cores []Core
	for i := 0; i < 4; i++ { // scaled: 4 P-cores
		cores = append(cores, Core{Kind: Big, Cluster: 0, Ladder: pLadder, IdleMW: 150})
	}
	for i := 0; i < 8; i++ { // scaled: 8 E-cores, two clusters of 4 sharing L2
		cluster := 1 + i/4
		cores = append(cores, Core{Kind: Little, Cluster: cluster, Ladder: eLadder, IdleMW: 60})
	}
	cost := defaultCost()
	cost.DRAMExtraNs = 44 // DDR5 behind a bigger fabric
	// Gracemont E-cores are out-of-order with respectable MLP — far closer
	// to the P-cores on memory-bound code than Apple's little cores are,
	// which is part of why Parallaft's Intel energy win is small (§5.8).
	cost.DRAMKindFactor = [numKinds]float64{Big: 0.5, Little: 2.0}
	cost.StoreDRAMFactor = [numKinds]float64{Big: 1.0, Little: 1.4}
	return Config{
		Name:  "intel-14700-like",
		Cores: cores,
		Cost:  cost,
		Power: PowerModel{SocStaticMW: 9000, DRAMStaticMW: 1200, DRAMPJAccess: 3.5},
		CacheCfg: cache.Config{
			LineSize: 64,
			L1Big:    cache.Geometry{Sets: 128, Ways: 6},
			L1Little: cache.Geometry{Sets: 64, Ways: 4},
			L2: []cache.Geometry{
				{Sets: 2048, Ways: 10}, // P cluster
				{Sets: 1024, Ways: 8},  // E cluster 0
				{Sets: 1024, Ways: 8},  // E cluster 1
			},
		},
		PageSize:            4 * 1024,
		SliceByInstructions: true,
	}
}
