package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"ena/internal/arch"
	"ena/internal/memsys"
	"ena/internal/powopt"
	"ena/internal/workload"
)

func TestSimulateConsistency(t *testing.T) {
	cfg := arch.BestMeanEHP()
	for _, k := range workload.Suite() {
		r := Simulate(cfg, k, Options{})
		if r.Perf.TFLOPs <= 0 {
			t.Errorf("%s: no throughput", k.Name)
		}
		if r.NodeW <= 0 {
			t.Errorf("%s: no power", k.Name)
		}
		want := r.Perf.TFLOPs * 1000 / r.NodeW
		if math.Abs(r.GFperW-want) > 1e-9 {
			t.Errorf("%s: GF/W inconsistent", k.Name)
		}
		if r.MissFrac != 0 {
			t.Errorf("%s: default options must be in-package resident", k.Name)
		}
	}
}

func TestNormalizedPerfIdentity(t *testing.T) {
	bm := arch.BestMeanEHP()
	for _, k := range workload.Suite() {
		if got := NormalizedPerf(bm, k); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: best-mean normalized perf = %v", k.Name, got)
		}
	}
}

func TestUseAppExtTraffic(t *testing.T) {
	cfg := arch.BestMeanEHP()
	lul := workload.LULESH()
	r := Simulate(cfg, lul, Options{UseAppExtTraffic: true, Policy: memsys.SoftwareManaged})
	if r.MissFrac <= 0 {
		t.Error("large-footprint kernel must generate external traffic")
	}
	if r.Power.ExtDynamic <= 0 {
		t.Error("external traffic must cost dynamic power")
	}
	r0 := Simulate(cfg, lul, Options{})
	if r.Perf.TFLOPs >= r0.Perf.TFLOPs {
		t.Error("external traffic must cost performance")
	}
	// MaxFlops fits in-package even with the app-traffic option.
	mf := Simulate(cfg, workload.MaxFlops(), Options{UseAppExtTraffic: true})
	if mf.MissFrac != 0 {
		t.Errorf("MaxFlops miss frac = %v", mf.MissFrac)
	}
}

func TestOptimizationsReducePower(t *testing.T) {
	cfg := arch.BestMeanEHP()
	for _, k := range workload.Suite() {
		base := Simulate(cfg, k, Options{})
		opt := Simulate(cfg, k, Options{Optimizations: powopt.All})
		if opt.NodeW >= base.NodeW {
			t.Errorf("%s: optimizations did not save power", k.Name)
		}
		if opt.Perf.TFLOPs != base.Perf.TFLOPs {
			t.Errorf("%s: optimizations must not change performance at a fixed point", k.Name)
		}
		if opt.GFperW <= base.GFperW {
			t.Errorf("%s: efficiency should improve", k.Name)
		}
	}
}

func TestExcludeExternal(t *testing.T) {
	cfg := arch.EHP(320, 1000, 1)
	mf := workload.MaxFlops()
	with := Simulate(cfg, mf, Options{})
	without := Simulate(cfg, mf, Options{ExcludeExternal: true})
	if without.NodeW >= with.NodeW {
		t.Error("excluding the external network must reduce accounted power")
	}
	if math.Abs(without.NodeW-without.Power.PackageW()) > 1e-9 {
		t.Error("ExcludeExternal should report package power")
	}
}

func TestProjectSystem(t *testing.T) {
	cfg := arch.EHP(320, 1000, 1)
	r := Simulate(cfg, workload.MaxFlops(), Options{ExcludeExternal: true})
	p := ProjectSystem(r, 0)
	if p.Nodes != arch.NodeCount {
		t.Errorf("default nodes = %d", p.Nodes)
	}
	// §V-F anchors: ~18.6 TF/node -> ~1.86 exaflops; ~11 MW.
	if p.ExaFLOPs < 1.7 || p.ExaFLOPs > 2.0 {
		t.Errorf("exaflops = %v, paper projects 1.86", p.ExaFLOPs)
	}
	if p.SystemMW < 10 || p.SystemMW > 13 {
		t.Errorf("system MW = %v, paper projects 11.1", p.SystemMW)
	}
	half := ProjectSystem(r, 50000)
	if math.Abs(half.ExaFLOPs*2-p.ExaFLOPs) > 1e-9 {
		t.Error("projection must be linear in node count")
	}
}

func TestTempCoupling(t *testing.T) {
	cfg := arch.BestMeanEHP()
	k := workload.CoMD()
	cold := Simulate(cfg, k, Options{TempC: 50})
	hot := Simulate(cfg, k, Options{TempC: 90})
	if hot.Power.CUStatic <= cold.Power.CUStatic {
		t.Error("temperature option must feed the leakage model")
	}
}

func TestResultString(t *testing.T) {
	cfg := arch.BestMeanEHP()
	r := Simulate(cfg, workload.CoMD(), Options{})
	s := r.String()
	if !strings.Contains(s, "CoMD") || !strings.Contains(s, "TFLOP/s") {
		t.Errorf("String = %q", s)
	}
}

func TestExascaleHeadline(t *testing.T) {
	// The whole point of the ENA (§I): >10 TF per node under 200 W, and
	// the 20 MW machine target within reach for peak compute.
	cfg := arch.BestMeanEHP()
	mf := Simulate(cfg, workload.MaxFlops(), Options{})
	if mf.Perf.TFLOPs < 10 {
		t.Errorf("node delivers %v TF, exascale needs > 10", mf.Perf.TFLOPs)
	}
	if mf.NodeW > 200 {
		t.Errorf("node power %v W exceeds the 200 W envelope", mf.NodeW)
	}
}

func TestSimulateApp(t *testing.T) {
	cfg := arch.BestMeanEHP()
	for _, app := range workload.Applications() {
		r, err := SimulateApp(cfg, app, Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		// Harmonic aggregation bounds: between the slowest and fastest phase.
		lo, hi := math.Inf(1), 0.0
		for _, pr := range r.PerKernel {
			if pr.Perf.TFLOPs < lo {
				lo = pr.Perf.TFLOPs
			}
			if pr.Perf.TFLOPs > hi {
				hi = pr.Perf.TFLOPs
			}
		}
		if r.TFLOPs < lo-1e-9 || r.TFLOPs > hi+1e-9 {
			t.Errorf("%s: app throughput %v outside phase range [%v, %v]",
				app.Name, r.TFLOPs, lo, hi)
		}
		if r.GFperW <= 0 {
			t.Errorf("%s: no efficiency", app.Name)
		}
		// The dominant-kernel shortcut the paper uses should be a decent
		// but not exact proxy for the whole app.
		ratio := r.TFLOPs / r.DomKernelR.Perf.TFLOPs
		if ratio < 0.3 || ratio > 2.0 {
			t.Errorf("%s: dominant-kernel approximation off by %vx", app.Name, ratio)
		}
	}
}

func TestSimulateAppRejectsInvalid(t *testing.T) {
	cfg := arch.BestMeanEHP()
	bad := workload.Application{Name: "x"}
	if _, err := SimulateApp(cfg, bad, Options{}); err == nil {
		t.Error("empty application accepted")
	}
}

func TestSimulateContext(t *testing.T) {
	cfg := arch.BestMeanEHP()
	k, err := workload.ByName("CoMD")
	if err != nil {
		t.Fatal(err)
	}
	r, err := SimulateContext(context.Background(), cfg, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Simulate(cfg, k, Options{})
	if r.Perf.TFLOPs != want.Perf.TFLOPs || r.NodeW != want.NodeW {
		t.Errorf("SimulateContext = %v, want %v", r, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, cfg, k, Options{}); err != context.Canceled {
		t.Errorf("cancelled SimulateContext err = %v, want context.Canceled", err)
	}
}

// TestSplitPhaseBitIdentical pins the contract the DSE's perf cache relies
// on: the inline Simulate and the split SimulatePerf + SimulateFromPerf
// composition produce bit-identical results, for every kernel, under every
// option combination that is valid to replay (Optimizations and
// ExcludeExternal vary; the phase-shaping options are fixed at phase time).
func TestSplitPhaseBitIdentical(t *testing.T) {
	cfgs := []*arch.NodeConfig{
		arch.BestMeanEHP(),
		arch.EHP(256, 1200, 5),
	}
	optVariants := []Options{
		{},
		{Optimizations: powopt.All},
		{Optimizations: powopt.All, ExcludeExternal: true},
		{MissFrac: 0.3, TempC: 85},
		{UseAppExtTraffic: true, Policy: memsys.SoftwareManaged},
	}
	for _, cfg := range cfgs {
		for _, k := range workload.Suite() {
			for _, opt := range optVariants {
				inline := Simulate(cfg, k, opt)
				split := SimulateFromPerf(cfg, k, opt, SimulatePerf(cfg, k, opt))
				if math.Float64bits(inline.NodeW) != math.Float64bits(split.NodeW) ||
					math.Float64bits(inline.GFperW) != math.Float64bits(split.GFperW) ||
					math.Float64bits(inline.Perf.TFLOPs) != math.Float64bits(split.Perf.TFLOPs) ||
					math.Float64bits(inline.MissFrac) != math.Float64bits(split.MissFrac) ||
					inline.Power != split.Power {
					t.Fatalf("%s/%s/%+v: inline and split-phase results diverge:\n%+v\nvs\n%+v",
						cfg, k.Name, opt, inline, split)
				}
			}
		}
	}
}
