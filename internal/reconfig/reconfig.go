// Package reconfig implements the paper's first research direction (§VI,
// "Dynamic Resource Reconfiguration"): a run-time technique that adjusts the
// hardware configuration — active CU count (power gating), GPU frequency
// (DVFS), and memory-bandwidth provisioning — as application phases change.
// Table II quantifies the oracle upper bound; this package adds the runtime
// itself: workloads as phase sequences, controllers (static, oracle, and an
// online reactive hill-climber), reconfiguration overheads, and the
// resulting time/energy accounting on the simulated node.
package reconfig

import (
	"fmt"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/perf"
	"ena/internal/powopt"
	"ena/internal/workload"
)

// Phase is one application phase: a kernel executing a fixed amount of work.
type Phase struct {
	Kernel workload.Kernel
	Flops  float64
}

// Workload is a sequence of phases (HPC applications interleave kernels;
// §IV footnote 3 notes the proxies consist of multiple kernels).
type Workload []Phase

// Repeat builds a workload of n rounds over the given kernels, each phase
// performing flopsPerPhase work.
func Repeat(kernels []workload.Kernel, rounds int, flopsPerPhase float64) Workload {
	var w Workload
	for r := 0; r < rounds; r++ {
		for _, k := range kernels {
			w = append(w, Phase{Kernel: k, Flops: flopsPerPhase})
		}
	}
	return w
}

// ReconfigOverheadS is the cost of changing the hardware configuration
// between phases: DVFS relock, CU power-gating wake-up, and bandwidth
// re-provisioning (~1 ms, generous for the mechanisms involved).
const ReconfigOverheadS = 1e-3

// Controller picks a configuration for each phase and learns from outcomes.
type Controller interface {
	// Name identifies the policy in reports.
	Name() string
	// ConfigFor returns the design point to run the phase at.
	ConfigFor(p Phase) dse.Point
	// Observe feeds back the measured outcome of running the phase.
	Observe(p Phase, pt dse.Point, perfTFLOPs, budgetW float64)
}

// Static always runs the statically provisioned configuration (the
// baseline the paper's best-mean represents).
type Static struct{ Point dse.Point }

// Name implements Controller.
func (s *Static) Name() string { return "static" }

// ConfigFor implements Controller.
func (s *Static) ConfigFor(Phase) dse.Point { return s.Point }

// Observe implements Controller.
func (s *Static) Observe(Phase, dse.Point, float64, float64) {}

// NewStaticBestMean returns the 320/1000/3 baseline controller.
func NewStaticBestMean() *Static {
	return &Static{Point: dse.Point{CUs: arch.BestMeanCUs, FreqMHz: arch.BestMeanFreqMHz, BWTBps: arch.BestMeanBWTBps}}
}

// Oracle knows each kernel's best configuration in advance (Table II's
// hypothetical).
type Oracle struct {
	Table    map[string]dse.Point
	Fallback dse.Point
}

// Name implements Controller.
func (o *Oracle) Name() string { return "oracle" }

// ConfigFor implements Controller.
func (o *Oracle) ConfigFor(p Phase) dse.Point {
	if pt, ok := o.Table[p.Kernel.Name]; ok {
		return pt
	}
	return o.Fallback
}

// Observe implements Controller.
func (o *Oracle) Observe(Phase, dse.Point, float64, float64) {}

// NewOracle derives the per-kernel table from a design-space exploration.
func NewOracle(out dse.Outcome) *Oracle {
	o := &Oracle{Table: map[string]dse.Point{}, Fallback: out.BestMean.Point}
	for i, k := range out.Kernels {
		o.Table[k.Name] = out.BestPerKernel[i].Point
	}
	return o
}

// Reactive is an online hill-climbing controller: for each kernel it tracks
// the best configuration seen so far and, with a fixed exploration cadence,
// probes a neighbouring design point chosen by the kernel's binding bound
// (more bandwidth when bandwidth-bound, more frequency when latency-bound,
// more CUs or frequency when compute-bound). Over-budget probes are learned
// as infeasible and never retried.
type Reactive struct {
	Budget float64
	Space  dse.Space
	Opts   powopt.Technique

	state map[string]*kernelState
}

type kernelState struct {
	best      dse.Point
	bestPerf  float64
	pending   *dse.Point // probe in flight
	tried     map[dse.Point]bool
	visits    int
	exhausted bool
}

// NewReactive builds the online controller starting from the best-mean.
func NewReactive(budget float64, space dse.Space, opts powopt.Technique) *Reactive {
	return &Reactive{Budget: budget, Space: space, Opts: opts, state: map[string]*kernelState{}}
}

// Name implements Controller.
func (r *Reactive) Name() string { return "reactive" }

func (r *Reactive) stateFor(k workload.Kernel) *kernelState {
	st, ok := r.state[k.Name]
	if !ok {
		st = &kernelState{
			best:  dse.Point{CUs: arch.BestMeanCUs, FreqMHz: arch.BestMeanFreqMHz, BWTBps: arch.BestMeanBWTBps},
			tried: map[dse.Point]bool{},
		}
		r.state[k.Name] = st
	}
	return st
}

// ConfigFor implements Controller.
func (r *Reactive) ConfigFor(p Phase) dse.Point {
	st := r.stateFor(p.Kernel)
	st.visits++
	// Explore aggressively while the kernel is new (front-loading the
	// probes amortizes better over long runs), then only occasionally.
	probing := st.visits > 1 && (st.visits <= 16 || st.visits%8 == 0)
	if !st.exhausted && probing {
		if probe, ok := r.nextProbe(p.Kernel, st); ok {
			st.pending = &probe
			return probe
		}
		st.exhausted = true
	}
	st.pending = nil
	return st.best
}

// nextProbe proposes an untried neighbour of the current best, steered by
// the kernel's binding bound at the current best point.
func (r *Reactive) nextProbe(k workload.Kernel, st *kernelState) (dse.Point, bool) {
	res := core.Simulate(st.best.Config(), k, core.Options{Optimizations: r.Opts})
	dirs := directionsFor(res)
	for _, d := range dirs {
		cand := dse.Point{
			CUs:     stepValue(r.Space.CUs, st.best.CUs, d.dCU),
			FreqMHz: stepValue(r.Space.FreqsMHz, st.best.FreqMHz, d.dF),
			BWTBps:  stepValue(r.Space.BWsTBps, st.best.BWTBps, d.dBW),
		}
		if cand == st.best || st.tried[cand] {
			continue
		}
		if cand.Config().Validate() != nil {
			st.tried[cand] = true
			continue
		}
		return cand, true
	}
	return dse.Point{}, false
}

type direction struct{ dCU, dF, dBW int }

// directionsFor ranks moves by what the roofline says is binding.
func directionsFor(res core.Result) []direction {
	switch res.Perf.Bound {
	case perf.BandwidthBound:
		return []direction{{0, 0, +1}, {0, -1, +1}, {-1, 0, +1}, {0, +1, 0}, {+1, 0, 0}}
	case perf.LatencyBound:
		return []direction{{0, +1, 0}, {0, +1, -1}, {+1, 0, 0}, {0, 0, +1}, {0, -1, 0}}
	default: // compute bound
		return []direction{{+1, 0, 0}, {0, +1, 0}, {+1, 0, -1}, {0, +1, -1}, {0, 0, +1}}
	}
}

// stepValue moves one grid slot along a sorted axis (generic over int and
// float64 axes).
func stepValue[T int | float64](axis []T, cur T, delta int) T {
	idx := 0
	for i, v := range axis {
		if v == cur {
			idx = i
			break
		}
	}
	idx += delta
	if idx < 0 {
		idx = 0
	}
	if idx >= len(axis) {
		idx = len(axis) - 1
	}
	return axis[idx]
}

// Observe implements Controller.
func (r *Reactive) Observe(p Phase, pt dse.Point, perfTFLOPs, budgetW float64) {
	st := r.stateFor(p.Kernel)
	if st.pending != nil && *st.pending == pt {
		st.tried[pt] = true
		st.pending = nil
	}
	if budgetW > r.Budget {
		return // infeasible probe: remember, never adopt
	}
	if perfTFLOPs > st.bestPerf {
		st.bestPerf = perfTFLOPs
		st.best = pt
	}
}

// PhaseOutcome records one executed phase.
type PhaseOutcome struct {
	Kernel     string
	Point      dse.Point
	TimeS      float64
	EnergyJ    float64
	PerfTFLOPs float64
	OverBudget bool
}

// RunResult aggregates a controller's execution of a workload.
type RunResult struct {
	Controller string
	TotalS     float64
	EnergyJ    float64
	Reconfigs  int
	Phases     []PhaseOutcome
}

// MeanPowerW returns average node power over the run.
func (r RunResult) MeanPowerW() float64 {
	if r.TotalS == 0 {
		return 0
	}
	return r.EnergyJ / r.TotalS
}

// SpeedupOver returns this run's throughput relative to another's.
func (r RunResult) SpeedupOver(base RunResult) float64 {
	if r.TotalS == 0 {
		return 0
	}
	return base.TotalS / r.TotalS
}

// String summarizes the run.
func (r RunResult) String() string {
	return fmt.Sprintf("%s: %.3f s, %.0f J (%.1f W mean), %d reconfigurations",
		r.Controller, r.TotalS, r.EnergyJ, r.MeanPowerW(), r.Reconfigs)
}

// Run executes the workload under a controller, charging reconfiguration
// overheads on configuration changes and accounting time and energy from
// the node model. A phase that lands over budget is throttled (the power
// manager caps frequency), modeled as running at the static best-mean
// instead with the overhead of two extra switches.
func Run(w Workload, c Controller, budgetW float64, opts powopt.Technique) RunResult {
	res := RunResult{Controller: c.Name()}
	var cur dse.Point
	first := true
	fallback := dse.Point{CUs: arch.BestMeanCUs, FreqMHz: arch.BestMeanFreqMHz, BWTBps: arch.BestMeanBWTBps}

	for _, p := range w {
		pt := c.ConfigFor(p)
		sim := core.Simulate(pt.Config(), p.Kernel, core.Options{Optimizations: opts})
		budget := sim.Power.PackageW() + sim.Power.ExtStatic + sim.Power.SerDesStatic
		c.Observe(p, pt, sim.Perf.TFLOPs, budget)

		over := budget > budgetW
		if over {
			// Power manager vetoes the point mid-phase and falls back.
			pt = fallback
			sim = core.Simulate(pt.Config(), p.Kernel, core.Options{Optimizations: opts})
			res.TotalS += ReconfigOverheadS
			res.Reconfigs++
		}
		if first || pt != cur {
			if !first {
				res.TotalS += ReconfigOverheadS
			}
			res.Reconfigs++
			cur = pt
			first = false
		}
		t := p.Flops / (sim.Perf.TFLOPs * 1e12)
		e := t * sim.NodeW
		res.TotalS += t
		res.EnergyJ += e
		res.Phases = append(res.Phases, PhaseOutcome{
			Kernel:     p.Kernel.Name,
			Point:      pt,
			TimeS:      t,
			EnergyJ:    e,
			PerfTFLOPs: sim.Perf.TFLOPs,
			OverBudget: over,
		})
	}
	return res
}
