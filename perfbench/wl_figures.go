package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"ena/internal/exp"
)

// figureIDs are the experiments paper-figures regenerates: the thermal
// figures (Fig. 10 peak DRAM temperature, Fig. 11 heat map) and the
// thermally constrained DSE ablation, the thermal solver's only heavy
// callers. The fabric scaling extension is timed in the traced run
// (exp.scaling_ms, fabric.curve_ms) but not regenerated here: its ~1.8 GB
// of allocation per run made regeneration times swing by up to 2x between
// runs on a shared host.
var figureIDs = []string{"fig10", "fig11", "ablation-thermal"}

// figLowPerRound is how many single-caller regenerations each round makes
// before its one regeneration per core: two, so the low phase, whose upper
// quartile is its tail, gets about as many samples as the high phase.
const figLowPerRound = 2

// regenerate runs every figure through the experiment registry, as
// enasim -run does, and returns the rendered text with per-figure times.
func regenerate() (string, map[string]time.Duration, error) {
	var b strings.Builder
	times := map[string]time.Duration{}
	for _, id := range figureIDs {
		e, err := exp.ByID(id)
		if err != nil {
			return "", nil, err
		}
		t0 := time.Now()
		text := e.Run().Render()
		times[id] = time.Since(t0)
		fmt.Fprintf(&b, "=== %s ===\n%s\n", id, text)
	}
	return b.String(), times, nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// figuresChild is the cold-regeneration child: a fresh process whose first
// regeneration pays every memo fill. It prints the output digest.
func figuresChild() int {
	text, _, err := regenerate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(digest(text))
	return 0
}

// coldChild times one child process from exec to exit and returns its
// output digest.
func coldChild() (time.Duration, string, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	cmd := exec.Command(self, figuresChildArg)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	out, err := cmd.Output()
	d := time.Since(t0)
	if err != nil {
		return 0, "", fmt.Errorf("figures child: %w", err)
	}
	return d, strings.TrimSpace(string(out)), nil
}

// runPaperFigures is the paper-figures workload: the experiment registry
// in process. Set-up is a cold regeneration (two fresh child processes and
// this process's own first one, median); later regenerations are timed with
// one caller (low) and one per core (high), and every rendered text must be
// byte-identical to the cold one.
func runPaperFigures(cfg config) (*result, error) {
	res := newResult()
	var setups []float64
	var digests []string
	for i := 0; i < setupRepeats-1; i++ {
		d, dg, err := coldChild()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		digests = append(digests, dg)
	}
	t0 := time.Now()
	golden, _, err := regenerate()
	if err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(t0).Seconds())
	want := digest(golden)
	res.attempted++
	for _, dg := range digests {
		if dg != want {
			res.failed++
			res.mismatches++
		}
	}

	var mu sync.Mutex
	lat := map[string][]float64{}
	perFig := map[string][]float64{}
	var peaks []float64
	phaseRun := func(name string, callers int, dur time.Duration) time.Duration {
		t0 := time.Now()
		closedLoop(callers, dur, func(_, _ int) {
			if callers == 1 {
				resetPeakRSS()
			}
			s := time.Now()
			text, times, err := regenerate()
			d := time.Since(s)
			mu.Lock()
			defer mu.Unlock()
			if callers == 1 {
				peaks = append(peaks, vmHWMMB(os.Getpid()))
			}
			res.attempted++
			if err != nil || text != golden {
				res.failed++
				res.mismatches++
			}
			lat[name] = append(lat[name], ms(d))
			for id, t := range times {
				perFig[name+"."+id] = append(perFig[name+"."+id], ms(t))
			}
		})
		return time.Since(t0)
	}
	// One caller, then one per core, in interleaved rounds (figLowPerRound
	// single-caller regenerations, then one per caller), so both phases
	// sample the whole run. Every regeneration starts from a collected heap
	// (outside the timing), so the garbage the previous one left does not
	// decide where its collections fall. Peak RSS is the single caller's,
	// per regeneration: the high-water mark is reset before each low-phase
	// regeneration and read after it, and the median is reported, so how
	// the garbage of concurrent regenerations happens to overlap does not
	// move it.
	total := time.Duration(cfg.seconds) * time.Second
	var highWall time.Duration
	for start := time.Now(); time.Since(start) < total; {
		for i := 0; i < figLowPerRound; i++ {
			runtime.GC()
			phaseRun("low", 1, 0)
		}
		runtime.GC()
		highWall += phaseRun("high", cfg.conns, 0)
	}

	// Too few regenerations for the tail rule: the tail is the upper
	// quartile across them (the slowest is in the report).
	low, high := summarize(lat["low"], 100), summarize(lat["high"], 100)
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", median(peaks), "MB")
	res.set("low.lat_p50_ms", low.P50, "ms")
	res.set("low.lat_tail_ms", upperQuartile(lat["low"]), "ms")
	res.set("high.lat_p50_ms", high.P50, "ms")
	res.set("high.lat_tail_ms", upperQuartile(lat["high"]), "ms")
	res.set("work_per_s", float64(len(lat["high"]))/highWall.Seconds(), "1/s")
	res.details["regen_s"] = low.P50 / 1000
	res.details["setup_samples_s"] = setups
	res.details["low"] = map[string]any{"regenerations": low.N, "p50_ms": low.P50, "max_ms": low.Max}
	res.details["high"] = map[string]any{"regenerations": high.N, "p50_ms": high.P50, "max_ms": high.Max}
	for k, v := range perFig {
		res.details["exp."+k+"_ms_p50"] = median(v)
	}
	return res, nil
}

// resetPeakRSS resets this process's VmHWM (Linux clear_refs value 5).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
