package machine

import (
	"math"
	"testing"

	"parallaft/internal/cache"
	"parallaft/internal/isa"
)

func TestPresetsAssemble(t *testing.T) {
	for _, cfg := range []Config{AppleM2Like(), IntelLike()} {
		m := New(cfg)
		if len(m.BigCores()) == 0 || len(m.LittleCores()) == 0 {
			t.Errorf("%s: missing a core kind", cfg.Name)
		}
		if m.PageSize == 0 || m.PageSize&(m.PageSize-1) != 0 {
			t.Errorf("%s: bad page size %d", cfg.Name, m.PageSize)
		}
		for _, c := range m.Cores {
			if len(c.Ladder) == 0 {
				t.Errorf("%s: core %d has no frequency ladder", cfg.Name, c.ID)
			}
			for i := 1; i < len(c.Ladder); i++ {
				if c.Ladder[i].GHz <= c.Ladder[i-1].GHz {
					t.Errorf("%s: core %d ladder not ascending", cfg.Name, c.ID)
				}
				if c.Ladder[i].ActiveMW <= c.Ladder[i-1].ActiveMW {
					t.Errorf("%s: core %d power not increasing with frequency", cfg.Name, c.ID)
				}
			}
			if c.FreqGHz() != c.MaxGHz() {
				t.Errorf("%s: cores should start at max frequency", cfg.Name)
			}
		}
	}
}

func TestAppleM2Shape(t *testing.T) {
	m := New(AppleM2Like())
	if len(m.BigCores()) != 4 || len(m.LittleCores()) != 4 {
		t.Errorf("want 4+4 cores, got %d+%d", len(m.BigCores()), len(m.LittleCores()))
	}
	if m.PageSize != 16*1024 {
		t.Errorf("Apple page size = %d, want 16384", m.PageSize)
	}
	if m.SliceByInstructions {
		t.Error("Apple preset should slice by cycles")
	}
	// separate clusters
	if m.BigCores()[0].Cluster == m.LittleCores()[0].Cluster {
		t.Error("big and little cores share a cluster")
	}
}

func TestIntelShape(t *testing.T) {
	m := New(IntelLike())
	if m.PageSize != 4*1024 {
		t.Errorf("Intel page size = %d, want 4096", m.PageSize)
	}
	if !m.SliceByInstructions {
		t.Error("Intel preset must slice by instructions (§5.8 footnote 14)")
	}
}

func TestDVFSClamping(t *testing.T) {
	m := New(AppleM2Like())
	c := m.LittleCores()[0]
	c.SetFreqIndex(-5)
	if c.FreqIndex() != 0 {
		t.Errorf("negative index not clamped: %d", c.FreqIndex())
	}
	c.SetFreqIndex(99)
	if c.FreqIndex() != len(c.Ladder)-1 {
		t.Errorf("overflow index not clamped: %d", c.FreqIndex())
	}
	c.SetFreqIndex(0)
	c.SetMaxFreq()
	if c.FreqGHz() != c.MaxGHz() {
		t.Error("SetMaxFreq failed")
	}
}

func TestEnergyIntegration(t *testing.T) {
	m := New(AppleM2Like())
	c := m.BigCores()[0]
	c.AccountActive(1e6) // 1 ms at max frequency
	wantJ := 1e6 * 1e-9 * c.Ladder[len(c.Ladder)-1].ActiveMW * 1e-3
	if got := c.ActiveEnergyJ(); math.Abs(got-wantJ) > 1e-12 {
		t.Errorf("ActiveEnergyJ = %v, want %v", got, wantJ)
	}
	if got := c.ActiveNs(); got != 1e6 {
		t.Errorf("ActiveNs = %v", got)
	}

	// energy at a lower DVFS point is cheaper for the same duration
	c2 := m.BigCores()[1]
	c2.SetFreqIndex(0)
	c2.AccountActive(1e6)
	if c2.ActiveEnergyJ() >= c.ActiveEnergyJ() {
		t.Error("low-frequency execution should use less power")
	}
}

func TestEnergyBreakdownMatchesTotal(t *testing.T) {
	m := New(AppleM2Like())
	m.BigCores()[0].AccountActive(5e5)
	m.LittleCores()[2].AccountActive(2e5)
	for i := 0; i < 100; i++ {
		m.CountDRAMAccess()
	}
	wall := 1e6
	total := m.EnergyJ(wall)
	bd := m.EnergyBreakdownJ(wall)
	if sum := bd.BigActiveJ + bd.LittleActiveJ + bd.IdleJ + bd.StaticJ + bd.DRAMDynJ; math.Abs(total-sum) > 1e-12 {
		t.Errorf("EnergyJ %v != breakdown total %v", total, sum)
	}
	if bd.BigActiveJ == 0 || bd.LittleActiveJ == 0 || bd.StaticJ == 0 || bd.DRAMDynJ == 0 {
		t.Errorf("breakdown has zero components: %+v", bd)
	}
	if m.DRAMAccesses() != 100 {
		t.Errorf("DRAM accesses = %d", m.DRAMAccesses())
	}
}

func TestLittleCoresAreMoreEfficient(t *testing.T) {
	// The premise of the whole paper: at max frequency, a little core does
	// work slower but at far lower power, so energy per unit of work wins.
	m := New(AppleM2Like())
	cost := &m.Cost
	big := m.BigCores()[0]
	little := m.LittleCores()[0]

	bigNs := cost.InstrTimeNs(Big, big.MaxGHz(), isa.CostSimple, cache.L1Hit, false, false, 1)
	littleNs := cost.InstrTimeNs(Little, little.MaxGHz(), isa.CostSimple, cache.L1Hit, false, false, 1)
	slowdown := littleNs / bigNs
	if slowdown < 1.5 || slowdown > 3.5 {
		t.Errorf("compute slowdown = %.2fx, want ~2x", slowdown)
	}

	bigP := big.Ladder[len(big.Ladder)-1].ActiveMW
	littleP := little.Ladder[len(little.Ladder)-1].ActiveMW
	energyRatio := (littleNs * littleP) / (bigNs * bigP)
	if energyRatio >= 0.6 {
		t.Errorf("little-core energy per instruction ratio = %.2f, want well below 1", energyRatio)
	}
}

func TestDRAMCostAsymmetry(t *testing.T) {
	m := New(AppleM2Like())
	cost := &m.Cost
	bigNs := cost.InstrTimeNs(Big, 3.5, isa.CostMem, cache.DRAM, true, false, 1)
	littleNs := cost.InstrTimeNs(Little, 2.4, isa.CostMem, cache.DRAM, true, false, 1)
	if littleNs/bigNs < 3 {
		t.Errorf("DRAM-bound little/big ratio %.2f, want >= 3 (MLP asymmetry)", littleNs/bigNs)
	}
	// stores to DRAM cost extra on little cores
	littleStore := cost.InstrTimeNs(Little, 2.4, isa.CostMem, cache.DRAM, true, true, 1)
	if littleStore <= littleNs {
		t.Error("store-drain penalty missing on little cores")
	}
	bigStore := cost.InstrTimeNs(Big, 3.5, isa.CostMem, cache.DRAM, true, true, 1)
	if bigStore != bigNs {
		t.Error("big cores should not pay a store penalty")
	}
	// contention scales the DRAM part
	contended := cost.InstrTimeNs(Big, 3.5, isa.CostMem, cache.DRAM, true, false, 2)
	if contended <= bigNs {
		t.Error("contention factor has no effect")
	}
	// cache hits don't pay contention
	hit := cost.InstrTimeNs(Big, 3.5, isa.CostMem, cache.L1Hit, true, false, 5)
	hitBase := cost.InstrTimeNs(Big, 3.5, isa.CostMem, cache.L1Hit, true, false, 1)
	if hit != hitBase {
		t.Error("contention leaked into cache hits")
	}
}

func TestFrequencyScalesTime(t *testing.T) {
	m := New(AppleM2Like())
	cost := &m.Cost
	fast := cost.InstrTimeNs(Little, 2.4, isa.CostSimple, cache.L1Hit, false, false, 1)
	slow := cost.InstrTimeNs(Little, 1.2, isa.CostSimple, cache.L1Hit, false, false, 1)
	if math.Abs(slow-2*fast) > 1e-12 {
		t.Errorf("halving frequency should double compute time: %v vs %v", slow, fast)
	}
}

func TestCoreKindString(t *testing.T) {
	if Big.String() != "big" || Little.String() != "little" {
		t.Error("CoreKind names wrong")
	}
}

func TestMachineString(t *testing.T) {
	m := New(AppleM2Like())
	if m.String() == "" {
		t.Error("empty machine description")
	}
}
