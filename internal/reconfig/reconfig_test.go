package reconfig

import (
	"strings"
	"testing"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/workload"
)

func smallWorkload(rounds int) Workload {
	var ks []workload.Kernel
	for _, n := range []string{"CoMD", "LULESH", "XSBench"} {
		k, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		ks = append(ks, k)
	}
	return Repeat(ks, rounds, 5e12)
}

func TestRepeat(t *testing.T) {
	w := smallWorkload(4)
	if len(w) != 12 {
		t.Fatalf("phases = %d", len(w))
	}
	if w[0].Kernel.Name != "CoMD" || w[3].Kernel.Name != "CoMD" {
		t.Error("round structure wrong")
	}
}

func TestStaticController(t *testing.T) {
	c := NewStaticBestMean()
	w := smallWorkload(2)
	r := Run(w, c, arch.NodePowerBudgetW, 0)
	if r.Controller != "static" {
		t.Error("name")
	}
	if r.Reconfigs != 1 {
		t.Errorf("static policy reconfigured %d times (only the initial set)", r.Reconfigs)
	}
	if r.TotalS <= 0 || r.EnergyJ <= 0 {
		t.Fatalf("degenerate run: %+v", r)
	}
	for _, p := range r.Phases {
		if p.OverBudget {
			t.Errorf("best-mean must never exceed the budget (%s)", p.Kernel)
		}
		if p.Point.CUs != arch.BestMeanCUs {
			t.Errorf("static ran %v", p.Point)
		}
	}
}

func TestOracleBeatsStatic(t *testing.T) {
	out := dse.Explore(dse.DefaultSpace(), workload.Suite(), arch.NodePowerBudgetW, 0)
	oracle := NewOracle(out)
	w := smallWorkload(3)
	st := Run(w, NewStaticBestMean(), arch.NodePowerBudgetW, 0)
	or := Run(w, oracle, arch.NodePowerBudgetW, 0)
	speedup := or.SpeedupOver(st)
	if speedup < 1.0 {
		t.Errorf("oracle slower than static: %v", speedup)
	}
	// Table II regime: per-kernel oracle buys up to ~50%; the mix here
	// includes XSBench (+31%), so the blended speedup must be visible.
	if speedup < 1.05 || speedup > 1.6 {
		t.Errorf("oracle speedup %v outside the Table II regime", speedup)
	}
}

func TestReactiveApproachesOracle(t *testing.T) {
	out := dse.Explore(dse.DefaultSpace(), workload.Suite(), arch.NodePowerBudgetW, 0)
	oracle := NewOracle(out)

	w := smallWorkload(40) // enough visits to learn
	st := Run(w, NewStaticBestMean(), arch.NodePowerBudgetW, 0)
	or := Run(w, oracle, arch.NodePowerBudgetW, 0)
	re := Run(w, NewReactive(arch.NodePowerBudgetW, dse.DefaultSpace(), 0), arch.NodePowerBudgetW, 0)

	sOr := or.SpeedupOver(st)
	sRe := re.SpeedupOver(st)
	if sRe < 1.0 {
		t.Errorf("reactive slower than static: %v", sRe)
	}
	// The online controller should capture a solid fraction of the oracle
	// benefit despite exploration costs.
	if gotFrac := (sRe - 1) / (sOr - 1); gotFrac < 0.4 {
		t.Errorf("reactive captured only %.0f%% of the oracle benefit (%v vs %v)",
			gotFrac*100, sRe, sOr)
	}
	if re.Reconfigs <= or.Reconfigs {
		t.Error("exploration implies more reconfigurations than the oracle")
	}
}

func TestReactiveNeverAdoptsInfeasible(t *testing.T) {
	w := smallWorkload(30)
	re := NewReactive(arch.NodePowerBudgetW, dse.DefaultSpace(), 0)
	r := Run(w, re, arch.NodePowerBudgetW, 0)
	// Probes may transiently exceed budget (the power manager throttles),
	// but adopted bests never do: the last visit of each kernel runs the
	// learned best and must be in budget.
	lastByKernel := map[string]PhaseOutcome{}
	for _, p := range r.Phases {
		lastByKernel[p.Kernel] = p
	}
	for k, p := range lastByKernel {
		if p.OverBudget {
			t.Errorf("%s: final adopted config over budget (%v)", k, p.Point)
		}
	}
}

func TestReconfigOverheadCharged(t *testing.T) {
	// Alternating kernels under the oracle forces a switch every phase;
	// the same workload under static never switches.
	out := dse.Explore(dse.DefaultSpace(), workload.Suite(), arch.NodePowerBudgetW, 0)
	oracle := NewOracle(out)
	w := smallWorkload(5)
	or := Run(w, oracle, arch.NodePowerBudgetW, 0)
	if or.Reconfigs < len(w) {
		t.Errorf("expected a reconfiguration per phase, got %d/%d", or.Reconfigs, len(w))
	}
}

func TestRunResultString(t *testing.T) {
	r := Run(smallWorkload(1), NewStaticBestMean(), arch.NodePowerBudgetW, 0)
	if !strings.Contains(r.String(), "static") {
		t.Errorf("String = %q", r.String())
	}
	if r.MeanPowerW() <= 0 {
		t.Error("mean power")
	}
}

func TestStepValue(t *testing.T) {
	axis := []int{1, 2, 3}
	if stepValue(axis, 2, 1) != 3 || stepValue(axis, 3, 1) != 3 || stepValue(axis, 1, -1) != 1 {
		t.Error("int stepping wrong")
	}
	faxis := []float64{700, 800, 900}
	if stepValue(faxis, 800, -1) != 700 {
		t.Error("float stepping wrong")
	}
	// Values off the axis snap to the low end before stepping.
	if stepValue(axis, 99, 1) != 2 {
		t.Error("off-axis handling")
	}
}

func TestOracleFallback(t *testing.T) {
	o := &Oracle{Table: map[string]dse.Point{}, Fallback: dse.Point{CUs: 320, FreqMHz: 1000, BWTBps: 3}}
	k, err := workload.ByName("CoMD")
	if err != nil {
		t.Fatal(err)
	}
	if got := o.ConfigFor(Phase{Kernel: k}); got != o.Fallback {
		t.Errorf("unknown kernel should fall back, got %v", got)
	}
}

func TestDirectionsSteerByBound(t *testing.T) {
	// Bandwidth-bound kernels probe toward more bandwidth first;
	// latency-bound toward frequency; compute-bound toward CUs.
	cases := []struct {
		name  string
		cfg   dse.Point
		check func(d direction) bool
	}{
		{"SNAP", dse.Point{CUs: 320, FreqMHz: 1000, BWTBps: 1}, func(d direction) bool { return d.dBW > 0 }},
		{"XSBench", dse.Point{CUs: 320, FreqMHz: 1000, BWTBps: 3}, func(d direction) bool { return d.dF > 0 }},
		{"MaxFlops", dse.Point{CUs: 320, FreqMHz: 1000, BWTBps: 3}, func(d direction) bool { return d.dCU > 0 }},
	}
	for _, c := range cases {
		k, err := workload.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		res := core.Simulate(c.cfg.Config(), k, core.Options{})
		dirs := directionsFor(res)
		if len(dirs) == 0 || !c.check(dirs[0]) {
			t.Errorf("%s (%v-bound): first probe direction %+v", c.name, res.Perf.Bound, dirs[0])
		}
	}
}

func TestOverBudgetFallback(t *testing.T) {
	// A controller that insists on an over-budget point gets throttled to
	// the best-mean fallback and the phase still completes.
	k, err := workload.ByName("MaxFlops")
	if err != nil {
		t.Fatal(err)
	}
	hot := &Static{Point: dse.Point{CUs: 384, FreqMHz: 1500, BWTBps: 7}}
	w := Workload{{Kernel: k, Flops: 1e12}}
	r := Run(w, hot, arch.NodePowerBudgetW, 0)
	if len(r.Phases) != 1 {
		t.Fatal("phase lost")
	}
	p := r.Phases[0]
	if !p.OverBudget {
		t.Error("384/1500/7 under MaxFlops must exceed 160 W")
	}
	if p.Point.CUs != arch.BestMeanCUs {
		t.Errorf("throttled phase ran %v, want the best-mean fallback", p.Point)
	}
}
