package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a tail percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks. It returns NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailOK reports whether percentile p (in percent) of n samples leaves at
// least minBeyond samples above it.
func tailOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// highestTail is the highest percentile, on a 0.1% grid, that leaves at
// least minBeyond of n samples beyond it; 0 when n is too small for any.
func highestTail(n int) float64 {
	for p := 99.9; p >= 50; p -= 0.1 {
		p = math.Round(p*10) / 10
		if tailOK(n, p) {
			return p
		}
	}
	return 0
}

// summary is a latency sample set reduced to the figures the benchmark
// reports: the median and a fixed tail percentile.
type summary struct {
	N      int
	P50    float64
	Tail   float64 // value at TailP, or the maximum when too few samples
	TailP  float64 // the percentile Tail reports, 100 meaning the maximum
	Mean   float64
	Max    float64
	TailOK bool // TailP leaves at least minBeyond samples beyond it
}

// summarize reduces samples at the fixed tail percentile tailP. When the
// sample set is too small for tailP under the tail rule, the tail falls back
// to the maximum and TailOK is false, so the report shows the rule was not
// met rather than quietly quoting a percentile without ten samples behind it.
func summarize(samples []float64, tailP float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: quantile(s, 0.5), TailP: tailP}
	if len(s) == 0 {
		return out
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	out.Mean = sum / float64(len(s))
	out.Max = s[len(s)-1]
	if tailOK(len(s), tailP) {
		out.Tail = quantile(s, tailP/100)
		out.TailOK = true
	} else {
		out.Tail = out.Max
		out.TailP = 100
	}
	return out
}

// median of a sample set (NaN for none).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowed splits a phase's samples into k equal windows of release time
// and summarizes each window: its median and its tailP percentile. It
// returns the good-side quartile across windows (the lower quartile, since
// lower latency is better) of each, and the per-window figures. Host-noise
// bursts on a shared machine hit a few windows and leave this figure alone,
// while a change to the program moves every window. Windows too small for
// the tail rule are skipped for the tail; with none left, the whole phase
// is summarized.
func windowed(lat, at []float64, span float64, k int, tailP float64) (p50, tail float64, ok bool, p50s, tails []float64) {
	buckets := make([][]float64, k)
	for i, v := range lat {
		w := int(at[i] / span * float64(k))
		w = max(0, min(k-1, w))
		buckets[w] = append(buckets[w], v)
	}
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		s := summarize(b, tailP)
		p50s = append(p50s, s.P50)
		if s.TailOK {
			tails = append(tails, s.Tail)
		}
	}
	if len(tails) == 0 {
		s := summarize(lat, tailP)
		return s.P50, s.Tail, s.TailOK, p50s, tails
	}
	return lowerQuartile(p50s), lowerQuartile(tails), true, p50s, tails
}

// trimmedWindows splits a phase's samples into k equal windows of release
// time, drops the slowest quarter of the windows (by mean latency, rounded
// down) and returns the samples of the rest. It is for phases too small to
// meet the tail rule in more than one window: a host-noise burst on a
// shared machine slows a few windows and is left out, while a change to the
// program slows every window.
func trimmedWindows(lat, at []float64, span float64, k int) []float64 {
	buckets := make([][]float64, k)
	for i, v := range lat {
		w := int(at[i] / span * float64(k))
		w = max(0, min(k-1, w))
		buckets[w] = append(buckets[w], v)
	}
	means := make([]float64, k)
	for w, b := range buckets {
		for _, v := range b {
			means[w] += v / float64(len(b))
		}
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return means[order[i]] < means[order[j]] })
	var out []float64
	for _, w := range order[:k-k/4] {
		out = append(out, buckets[w]...)
	}
	return out
}

// lowerQuartile of a sample set (NaN for none).
func lowerQuartile(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.25)
}

// upperQuartile of a sample set (NaN for none).
func upperQuartile(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.75)
}
