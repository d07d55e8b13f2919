// Package powopt models the aggressive power-saving techniques of §V-E:
// near-threshold computing on the CUs, asynchronous compute units,
// asynchronous interconnect routers, low-power link operation, and DRAM
// traffic compression. Each technique reduces the power components it
// targets; Fig. 12 reports per-technique and combined savings, and Fig. 13
// the energy-efficiency gain once the freed budget is re-invested by the
// design-space exploration.
package powopt

import (
	"strings"

	"ena/internal/power"
	"ena/internal/units"
	"ena/internal/workload"
)

// Technique is one §V-E optimization, usable as a bitmask.
type Technique uint

const (
	// NTC operates CU logic near the threshold voltage while sustaining
	// 1 GHz (variability-tolerant circuits); it does not apply to the
	// SRAM/memory circuits.
	NTC Technique = 1 << iota
	// AsyncCU applies asynchronous-circuit techniques to the ALUs and
	// crossbars of the GPU SIMD units only.
	AsyncCU
	// AsyncRouters extends asynchronous circuits to interposer routers.
	AsyncRouters
	// LowPowerLinks runs interconnect links in a low-power mode.
	LowPowerLinks
	// Compression compresses LLC<->in-package-DRAM network messages; its
	// benefit scales with the kernel's pinned Compressibility ratio.
	Compression
)

// All is the full technique stack evaluated in Figs. 12-13.
const All = NTC | AsyncCU | AsyncRouters | LowPowerLinks | Compression

// Each lists the individual techniques in presentation order.
var Each = []Technique{NTC, AsyncCU, AsyncRouters, LowPowerLinks, Compression}

// String implements fmt.Stringer (combined sets join with '+').
func (t Technique) String() string {
	names := []struct {
		bit  Technique
		name string
	}{
		{NTC, "NTC"},
		{AsyncCU, "async-CUs"},
		{AsyncRouters, "async-routers"},
		{LowPowerLinks, "low-power-links"},
		{Compression, "compression"},
	}
	var parts []string
	for _, n := range names {
		if t&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Effect-size parameters (calibrated to the §V-E reported means: NTC 14%,
// async CUs 4.3%, async routers 3.0%, low-power links 1.6%, compression
// 1.7% system-average savings).
const (
	// ntcVScale is the voltage reduction NTC achieves at iso-frequency
	// by operating variability-tolerant CU logic below the conventional
	// SRAM-stability floor (power.VFloor); dynamic power falls with its
	// square.
	ntcVScale = 0.76
	// asyncCUDynFrac is the share of CU dynamic power eliminated by
	// asynchronous ALUs and crossbars (clock-tree and register activity
	// in those blocks).
	asyncCUDynFrac = 0.145
	// asyncRouterFrac is the NoC dynamic+static share saved by
	// asynchronous routers.
	asyncRouterFrac = 0.38
	// lpLinkNoCDynFrac is the NoC dynamic share saved by low-power links.
	lpLinkNoCDynFrac = 0.20
	// lpLinkSerDesFrac is the SerDes static share saved by low-power
	// (fast-wake) link states.
	lpLinkSerDesFrac = 0.10
	// compressionNoCShare: fraction of NoC dynamic power on the LLC-to-
	// memory long-distance interconnect where compression applies.
	compressionNoCShare = 0.75
	// compressionHBMIOShare: only the interface/IO portion of the DRAM
	// access energy shrinks with compressed transfers; the array access
	// itself does not.
	compressionHBMIOShare = 0.55
)

// NTC frequency limits: the paper's circuits sustain near-threshold
// operation "at as high as 1 GHz"; the benefit fades above that and is gone
// by ntcMaxMHz.
const (
	ntcFullMHz = 1000
	ntcMaxMHz  = 1300
)

// ntcStrength returns how much of the full NTC voltage reduction is
// available at a GPU frequency (1 at or below 1 GHz, 0 at 1.3 GHz and up).
func ntcStrength(fMHz float64) float64 {
	switch {
	case fMHz <= ntcFullMHz:
		return 1
	case fMHz >= ntcMaxMHz:
		return 0
	default:
		return (ntcMaxMHz - fMHz) / (ntcMaxMHz - ntcFullMHz)
	}
}

// Apply returns the power breakdown with the selected techniques applied for
// the given kernel running at the given GPU frequency. Effects compose
// multiplicatively on the components they share (NTC and AsyncCU both scale
// CU dynamic power).
func Apply(b power.Breakdown, k workload.Kernel, fMHz float64, set Technique) power.Breakdown {
	out := b
	if set&NTC != 0 {
		sc := units.Lerp(1, ntcVScale, ntcStrength(fMHz))
		out.CUDynamic *= sc * sc
		// Leakage falls roughly linearly with voltage; SRAM rails stay
		// nominal, so only the logic share (~60%) scales.
		out.CUStatic *= 0.4 + 0.6*sc
	}
	if set&AsyncCU != 0 {
		out.CUDynamic *= 1 - asyncCUDynFrac
	}
	if set&AsyncRouters != 0 {
		out.NoCDynamic *= 1 - asyncRouterFrac
		out.NoCStatic *= 1 - asyncRouterFrac
	}
	if set&LowPowerLinks != 0 {
		out.NoCDynamic *= 1 - lpLinkNoCDynFrac
		out.SerDesStatic *= 1 - lpLinkSerDesFrac
	}
	if set&Compression != 0 {
		ratio := k.Compressibility
		if ratio < 1 {
			ratio = 1
		}
		saved := 1 - 1/ratio
		out.HBMDynamic *= 1 - compressionHBMIOShare*saved
		out.NoCDynamic *= 1 - compressionNoCShare*saved
	}
	return out
}

// SavingsFrac returns the fractional node-power saving of a technique set
// relative to the unoptimized breakdown (the Fig. 12 metric).
func SavingsFrac(b power.Breakdown, k workload.Kernel, fMHz float64, set Technique) float64 {
	base := b.Total()
	if base == 0 {
		return 0
	}
	return (base - Apply(b, k, fMHz, set).Total()) / base
}
