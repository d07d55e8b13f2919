package arch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEHPBuilder(t *testing.T) {
	n := EHP(320, 1000, 3)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := n.TotalCUs(); got != 320 {
		t.Errorf("TotalCUs = %d", got)
	}
	if got := n.GPUFreqMHz(); got != 1000 {
		t.Errorf("GPUFreqMHz = %v", got)
	}
	if got := n.InPackageBWTBps(); math.Abs(got-3) > 1e-9 {
		t.Errorf("InPackageBWTBps = %v", got)
	}
	if got := n.InPackageCapacityGB(); got != 256 {
		t.Errorf("InPackageCapacityGB = %v", got)
	}
	if got := n.ExtCapacityGB(); got != 1024 {
		t.Errorf("ExtCapacityGB = %v (exascale target is >= 1 TB)", got)
	}
	if got := n.CPUCores(); got != 32 {
		t.Errorf("CPUCores = %d (paper: 32 cores)", got)
	}
	if got := len(n.GPU); got != GPUChipletCount {
		t.Errorf("GPU chiplets = %d", got)
	}
	if got := n.SerDesLinkCount(); got != 32 {
		t.Errorf("SerDes links = %d", got)
	}
}

func TestPeakTFLOPs(t *testing.T) {
	// 2 TF per 32-CU chiplet at 1 GHz (paper §II-A1): 8 chiplets => 16 TF.
	n := EHP(256, 1000, 4)
	if got := n.PeakTFLOPs(); math.Abs(got-16.384) > 1e-9 {
		t.Errorf("PeakTFLOPs(256 CU @ 1 GHz) = %v, want ~16.4", got)
	}
}

func TestOpsPerByte(t *testing.T) {
	// The paper's Fig. 4-6 x-axis: 320 CUs x 1 GHz / 3 TB/s ~ 0.107.
	n := EHP(320, 1000, 3)
	if got := n.OpsPerByte(); math.Abs(got-0.10667) > 1e-3 {
		t.Errorf("OpsPerByte = %v, want ~0.107", got)
	}
}

func TestCUDistribution(t *testing.T) {
	f := func(raw uint16) bool {
		cus := int(raw)%MaxCUsPerNode + 1
		n := EHP(cus, 1000, 3)
		total := 0
		min, max := 1<<30, 0
		for _, g := range n.GPU {
			total += g.CUs
			if g.CUs < min {
				min = g.CUs
			}
			if g.CUs > max {
				max = g.CUs
			}
		}
		return total == cus && max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (&NodeConfig{}).Validate(); err != ErrNoGPU {
		t.Errorf("empty config: %v", err)
	}

	n := EHP(400, 1000, 3)
	if err := n.Validate(); err == nil {
		t.Error("400 CUs must exceed the area budget")
	}

	n = EHP(320, 1000, 3)
	n.HBM = n.HBM[:4]
	if err := n.Validate(); err != ErrHBMMismatch {
		t.Errorf("HBM mismatch: %v", err)
	}

	n = EHP(320, 1000, 3)
	n.GPU[3].FreqMHz = 900
	if err := n.Validate(); err != ErrNonUniformFreq {
		t.Errorf("non-uniform freq: %v", err)
	}

	n = EHP(320, 0, 3)
	if err := n.Validate(); err != ErrBadFreq {
		t.Errorf("zero freq: %v", err)
	}

	n = EHP(320, 1000, 3)
	n.HBM[0].BandwidthGBps = 0
	if err := n.Validate(); err == nil {
		t.Error("zero stack bandwidth must fail")
	}

	n = EHP(320, 1000, 3)
	n.Ext[0].LinkGBps = 0
	if err := n.Validate(); err == nil {
		t.Error("chain with modules but no link bandwidth must fail")
	}
}

func TestClone(t *testing.T) {
	a := EHP(320, 1000, 3)
	b := a.Clone()
	b.GPU[0].CUs = 1
	b.Ext[0].Modules[0].CapacityGB = 1
	b.HBM[0].CapacityGB = 1
	if a.GPU[0].CUs == 1 || a.Ext[0].Modules[0].CapacityGB == 1 || a.HBM[0].CapacityGB == 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestMonolithic(t *testing.T) {
	a := EHP(320, 1000, 3)
	m := Monolithic(a)
	if !m.Monolithic || a.Monolithic {
		t.Error("Monolithic flag handling wrong")
	}
	if m.TotalCUs() != a.TotalCUs() || m.InPackageBWTBps() != a.InPackageBWTBps() {
		t.Error("monolithic baseline must have identical resources")
	}
}

func TestHybridExternal(t *testing.T) {
	a := EHP(320, 1000, 3)
	h := WithHybridExternal(a)
	if got, want := h.ExtCapacityGB(), a.ExtCapacityGB(); got != want {
		t.Errorf("hybrid capacity %v != DRAM-only %v (must stay constant)", got, want)
	}
	if h.SerDesLinkCount() >= a.SerDesLinkCount() {
		t.Error("hybrid must use fewer SerDes links (denser modules)")
	}
	if got := h.NVMFractionDynamic(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("NVM traffic fraction = %v, want 0.5 (half the capacity)", got)
	}
	if h.ExtDRAMModuleCount() != a.ExtDRAMModuleCount()/2 {
		t.Errorf("hybrid replaces half the external DRAM: %d vs %d",
			h.ExtDRAMModuleCount(), a.ExtDRAMModuleCount())
	}
}

func TestBestMeanConfigs(t *testing.T) {
	bm := BestMeanEHP()
	if bm.TotalCUs() != 320 || bm.GPUFreqMHz() != 1000 || math.Abs(bm.InPackageBWTBps()-3) > 1e-9 {
		t.Errorf("best-mean = %s", bm)
	}
	om := OptimizedBestMeanEHP()
	if om.TotalCUs() != 288 || om.GPUFreqMHz() != 1100 {
		t.Errorf("optimized best-mean = %s", om)
	}
}

func TestMemKindString(t *testing.T) {
	if DRAMModule.String() != "DRAM" || NVMModule.String() != "NVM" {
		t.Error("MemKind strings wrong")
	}
	if MemKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestString(t *testing.T) {
	n := EHP(320, 1000, 3)
	if got := n.String(); got != "320 CUs / 1000 MHz / 3 TB/s" {
		t.Errorf("String = %q", got)
	}
}

func TestZeroBandwidthEdges(t *testing.T) {
	n := &NodeConfig{}
	if n.OpsPerByte() != 0 {
		t.Error("no HBM -> zero ops/byte")
	}
	if n.GPUFreqMHz() != 0 {
		t.Error("no GPU -> zero frequency")
	}
	if n.TotalCapacityGB() != 0 || n.ExtBWTBps() != 0 {
		t.Error("empty node has no memory")
	}
}

func TestExtBandwidth(t *testing.T) {
	n := EHP(320, 1000, 3)
	// 8 interfaces x 100 GB/s = 0.8 TB/s.
	if got := n.ExtBWTBps(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("ExtBWTBps = %v", got)
	}
}

func TestChipletPeak(t *testing.T) {
	g := GPUChiplet{CUs: 32, FreqMHz: 1000}
	// The paper's anchor: 32 CUs at ~1 GHz = 2 DP TFLOP/s.
	if got := g.PeakTFLOPs(); math.Abs(got-2.048) > 1e-9 {
		t.Errorf("chiplet peak = %v", got)
	}
}
