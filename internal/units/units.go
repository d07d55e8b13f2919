// Package units centralizes the unit conventions used across the ENA model.
//
// All model code passes plain float64 values; the convention is encoded in
// identifier names (e.g. bwTBps, powerW, energyPJ). This package provides the
// conversion constants and a few tiny numeric helpers shared by everyone so
// that magic numbers never appear inline.
package units

// Byte-quantity multipliers (binary for capacities, decimal for bandwidth, as
// is conventional in memory-system literature).
const (
	KiB = 1024.0
	MiB = 1024.0 * KiB
	GiB = 1024.0 * MiB

	KB = 1e3
	MB = 1e6
	GB = 1e9
	TB = 1e12
)

// Frequency multipliers (Hz).
const (
	KHz = 1e3
	MHz = 1e6
	GHz = 1e9
)

// Energy multipliers (Joules).
const (
	PJ = 1e-12
	NJ = 1e-9
	UJ = 1e-6
	MJ = 1e6 // mega-joule (note: upper-case M = mega here, not milli)
)

// Throughput multipliers (FLOP/s).
const (
	GFLOPS = 1e9
	TFLOPS = 1e12
	PFLOPS = 1e15
	EFLOPS = 1e18
)

// Power multipliers (Watts).
const (
	MW = 1e6 // megawatt
	KW = 1e3
)

// CacheLineBytes is the transfer granule assumed throughout the memory-system
// models (a standard 64-byte line).
const CacheLineBytes = 64

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 {
	return a + (b-a)*t
}

// Min3 returns the smallest of three values.
func Min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}
