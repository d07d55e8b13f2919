// Package ras models the reliability, availability and serviceability
// concerns of §II-A5 and §VI: FIT-rate-based node and system MTTF, SECDED
// ECC coverage and overhead for the memory arrays, the optimal
// checkpoint/restart interval (Daly's approximation), and the
// redundant-multithreading (RMT) slack model for GPU error detection. The
// paper treats these qualitatively (it explicitly excludes a quantitative
// RMT evaluation); this package is the quantitative extension the §VI
// research directions call for.
package ras

import (
	"errors"
	"math"

	"ena/internal/arch"
)

// FIT is failures per billion device-hours.
const fitHours = 1e9

// Component FIT rates for the exascale-timeframe process (derived from
// field-study scaling: transient faults grow with transistor count and
// memory capacity).
const (
	FITPerCU          = 10  // GPU compute unit logic
	FITPerCPUCore     = 25  // latency-optimized core (bigger structures)
	FITPerGBInPackage = 14  // 3D DRAM per GB (before ECC)
	FITPerGBExternal  = 10  // external DRAM per GB (before ECC)
	FITPerGBNVM       = 2   // NVM cells are SEU-immune; periphery only
	FITInterposer     = 120 // NoC + system logic per interposer
	FITPerSerDesLink  = 15
)

// ECCMode selects the memory protection level.
type ECCMode int

const (
	// NoECC leaves arrays unprotected (GPU consumer heritage; §II-A5).
	NoECC ECCMode = iota
	// SECDED corrects single-bit and detects double-bit errors.
	SECDED
	// Chipkill corrects a full-device failure (for external DRAM).
	Chipkill
)

// eccCoverage is the fraction of memory faults an ECC mode turns harmless.
func eccCoverage(m ECCMode) float64 {
	switch m {
	case SECDED:
		return 0.97
	case Chipkill:
		return 0.995
	default:
		return 0
	}
}

// Config selects the node's RAS provisions.
type Config struct {
	MemoryECC   ECCMode
	ExternalECC ECCMode
	// RMTCoverage is the fraction of GPU logic faults detected by
	// redundant multithreading (0 disables RMT).
	RMTCoverage float64
}

// DefaultConfig is the paper's working assumption: ECC on all DRAM, RMT
// available for the GPU.
func DefaultConfig() Config {
	return Config{MemoryECC: SECDED, ExternalECC: Chipkill, RMTCoverage: 0.95}
}

// Analysis holds the derived reliability metrics.
type Analysis struct {
	NodeFIT        float64 // post-protection failures per 1e9 h per node
	NodeMTTFHours  float64
	SystemMTTFMins float64 // across all nodes
	SilentFIT      float64 // undetected (silent) error rate per node
}

// Analyze computes node and system reliability for a configuration.
func Analyze(cfg *arch.NodeConfig, rc Config, nodes int) Analysis {
	if nodes <= 0 {
		nodes = arch.NodeCount
	}
	var fit, silent float64

	gpuFIT := float64(cfg.TotalCUs()) * FITPerCU
	// RMT converts silent GPU faults into detected (recoverable) ones; it
	// does not remove them, so they still count toward interruptions.
	fit += gpuFIT
	silent += gpuFIT * (1 - rc.RMTCoverage)

	cpuFIT := float64(cfg.CPUCores()) * FITPerCPUCore
	fit += cpuFIT
	silent += cpuFIT * 0.1 // cores have parity/retry on most structures

	memFIT := cfg.InPackageCapacityGB() * FITPerGBInPackage
	cov := eccCoverage(rc.MemoryECC)
	fit += memFIT * (1 - cov)
	silent += memFIT * (1 - cov) * 0.5

	var extFIT float64
	for _, ch := range cfg.Ext {
		for _, m := range ch.Modules {
			switch m.Kind {
			case arch.NVMModule:
				extFIT += m.CapacityGB * FITPerGBNVM
			default:
				extFIT += m.CapacityGB * FITPerGBExternal
			}
		}
	}
	covE := eccCoverage(rc.ExternalECC)
	fit += extFIT * (1 - covE)
	silent += extFIT * (1 - covE) * 0.5

	fit += 6 * FITInterposer // six interposer positions
	fit += float64(cfg.SerDesLinkCount()) * FITPerSerDesLink

	a := Analysis{NodeFIT: fit, SilentFIT: silent}
	if fit > 0 {
		a.NodeMTTFHours = fitHours / fit
		a.SystemMTTFMins = a.NodeMTTFHours / float64(nodes) * 60
	}
	return a
}

// ErrBadInterval reports an unusable checkpoint parameterization.
var ErrBadInterval = errors.New("ras: checkpoint time must be positive and smaller than the system MTTF")

// OptimalCheckpointMins returns Daly's first-order optimal checkpoint
// interval sqrt(2 * delta * MTTF) for checkpoint cost delta, both in
// minutes.
func OptimalCheckpointMins(checkpointMins, systemMTTFMins float64) (float64, error) {
	if checkpointMins <= 0 || systemMTTFMins <= checkpointMins {
		return 0, ErrBadInterval
	}
	return math.Sqrt(2 * checkpointMins * systemMTTFMins), nil
}

// CheckpointEfficiency returns the fraction of machine time doing useful
// work under periodic checkpointing with the given interval: time lost to
// writing checkpoints plus expected rework after failures.
func CheckpointEfficiency(intervalMins, checkpointMins, systemMTTFMins float64) float64 {
	if intervalMins <= 0 || systemMTTFMins <= 0 {
		return 0
	}
	// Overhead fraction: checkpoint cost per interval, plus expected lost
	// work of half an interval (plus restart = one checkpoint cost) per
	// failure.
	overhead := checkpointMins/intervalMins + (intervalMins/2+checkpointMins)/systemMTTFMins
	eff := 1 - overhead
	if eff < 0 {
		return 0
	}
	return eff
}

// RMTOverheadFrac estimates the throughput cost of GPU redundant
// multithreading given the kernel's utilization of peak: RMT re-executes
// work on otherwise-idle CUs, so cost appears only when duplicated work
// cannot fit in the idle capacity (utilization above one half) [25].
func RMTOverheadFrac(utilOfPeak float64) float64 {
	if utilOfPeak <= 0.5 {
		return 0
	}
	// Duplicated work is util; capacity is 1: slowdown = 2*util when
	// 2*util > 1, i.e. overhead = 2*util - 1 relative to baseline util.
	return (2*utilOfPeak - 1) / (2 * utilOfPeak)
}
