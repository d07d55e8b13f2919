package ras

import (
	"math"
	"testing"

	"ena/internal/arch"
)

func TestAnalyzeProtectionImproves(t *testing.T) {
	cfg := arch.BestMeanEHP()
	none := Analyze(cfg, Config{}, arch.NodeCount)
	def := Analyze(cfg, DefaultConfig(), arch.NodeCount)
	if def.NodeFIT >= none.NodeFIT {
		t.Errorf("protection must reduce FIT: %v -> %v", none.NodeFIT, def.NodeFIT)
	}
	if def.NodeMTTFHours <= none.NodeMTTFHours {
		t.Error("protection must raise MTTF")
	}
	if def.SilentFIT >= none.SilentFIT {
		t.Error("protection must reduce silent errors")
	}
}

func TestSystemMTTFScales(t *testing.T) {
	cfg := arch.BestMeanEHP()
	a := Analyze(cfg, DefaultConfig(), 100000)
	b := Analyze(cfg, DefaultConfig(), 50000)
	if math.Abs(b.SystemMTTFMins-2*a.SystemMTTFMins) > 1e-6*a.SystemMTTFMins {
		t.Errorf("system MTTF must be inversely proportional to node count: %v vs %v",
			a.SystemMTTFMins, b.SystemMTTFMins)
	}
	if c := Analyze(cfg, DefaultConfig(), 0); c.SystemMTTFMins != a.SystemMTTFMins {
		t.Error("zero nodes should default to the paper's 100,000")
	}
}

func TestMemoryCapacityDrivesFIT(t *testing.T) {
	small := arch.BestMeanEHP()
	big := arch.BestMeanEHP()
	for i := range big.Ext {
		for j := range big.Ext[i].Modules {
			big.Ext[i].Modules[j].CapacityGB *= 4
		}
	}
	rc := Config{} // unprotected, so capacity shows directly
	if Analyze(big, rc, 1).NodeFIT <= Analyze(small, rc, 1).NodeFIT {
		t.Error("more memory must mean more faults")
	}
}

func TestNVMLowersMemoryFIT(t *testing.T) {
	base := arch.BestMeanEHP()
	hyb := arch.WithHybridExternal(base)
	rc := Config{}
	if Analyze(hyb, rc, 1).NodeFIT >= Analyze(base, rc, 1).NodeFIT {
		t.Error("NVM cells are SEU-immune; hybrid should have fewer faults")
	}
}

func TestOptimalCheckpoint(t *testing.T) {
	// Daly: sqrt(2 * delta * MTTF).
	got, err := OptimalCheckpointMins(2, 400)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-40) > 1e-9 {
		t.Errorf("optimal interval = %v, want 40", got)
	}
	if _, err := OptimalCheckpointMins(0, 400); err == nil {
		t.Error("zero checkpoint cost must error")
	}
	if _, err := OptimalCheckpointMins(500, 400); err == nil {
		t.Error("checkpoint slower than MTTF must error")
	}
}

func TestCheckpointEfficiency(t *testing.T) {
	// The optimum should (weakly) beat nearby intervals.
	const ckpt, mttf = 2.0, 400.0
	opt, err := OptimalCheckpointMins(ckpt, mttf)
	if err != nil {
		t.Fatal(err)
	}
	best := CheckpointEfficiency(opt, ckpt, mttf)
	if best <= 0 || best >= 1 {
		t.Fatalf("efficiency = %v", best)
	}
	for _, iv := range []float64{opt / 4, opt * 4} {
		if e := CheckpointEfficiency(iv, ckpt, mttf); e > best+1e-9 {
			t.Errorf("interval %v beats the optimum: %v > %v", iv, e, best)
		}
	}
	if CheckpointEfficiency(0, ckpt, mttf) != 0 {
		t.Error("degenerate interval")
	}
	// Hopeless regime: checkpointing costs more than the machine delivers.
	if e := CheckpointEfficiency(1, 10, 5); e < 0 {
		t.Errorf("efficiency must clamp at 0, got %v", e)
	}
}

func TestRMTOverhead(t *testing.T) {
	if RMTOverheadFrac(0.3) != 0 {
		t.Error("below half utilization RMT rides idle CUs for free")
	}
	if got := RMTOverheadFrac(1.0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("full utilization overhead = %v, want 0.5", got)
	}
	// Monotone in utilization.
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.05 {
		o := RMTOverheadFrac(u)
		if o < prev-1e-12 {
			t.Fatalf("overhead not monotone at %v", u)
		}
		prev = o
	}
}

func TestExascaleRASReality(t *testing.T) {
	// §I: user intervention limited to ~a week would be ideal; a raw
	// 100,000-node machine fails far more often, which is why
	// checkpointing and ECC are first-class (§II-A5).
	cfg := arch.BestMeanEHP()
	a := Analyze(cfg, DefaultConfig(), arch.NodeCount)
	if a.SystemMTTFMins > 7*24*60 {
		t.Errorf("system MTTF %v min — the RAS problem should be non-trivial", a.SystemMTTFMins)
	}
	if a.SystemMTTFMins < 10 {
		t.Errorf("system MTTF %v min — too pessimistic to checkpoint at all", a.SystemMTTFMins)
	}
	opt, err := OptimalCheckpointMins(2, a.SystemMTTFMins)
	if err != nil {
		t.Fatalf("checkpointing must remain viable: %v", err)
	}
	if eff := CheckpointEfficiency(opt, 2, a.SystemMTTFMins); eff < 0.7 {
		t.Errorf("machine efficiency %v — protection choices too weak", eff)
	}
}
