// Command perfbench is the repository's benchmark. It drives the real
// enaserve binary over loopback HTTP (simulate-mixed, simulate-detailed,
// explore-jobs) or the experiment registry in process (paper-figures),
// checks every output against an in-process oracle, and prints one JSON
// result line. With -trace 1 it instead replays the workload's inputs down
// the cost ladder (HTTP -> handler -> core -> perf/power phases, and the
// noc, dse, surrogate, cluster, store, fabric and thermal layers) and prints
// per-layer metrics.
//
// Usage (from the repository root, after building enaserve):
//
//	perfbench -workload simulate-mixed -seed 1 -seconds 20 -trace 0 -enaserve .bench_build/enaserve
//
// perfbench/run.py builds both binaries and runs this command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// bg is the context of every benchmark request; runs end by their own
// deadlines, not by cancellation.
var bg = context.Background()

// figuresChildArg re-executes the harness as a cold paper-figures child.
const figuresChildArg = "-figures-child"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produces.
type result struct {
	attempted  int64
	failed     int64
	mismatches int64 // oracle mismatches (a subset of failed)
	metrics    map[string]metric
	details    map[string]any // every named figure, for the report line
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// add folds a phase's accounting into the run totals.
func (r *result) add(p phase) {
	r.attempted += int64(p.Sent)
	r.failed += int64(p.Failed)
	r.mismatches += int64(p.Reasons["mismatch"])
}

// config is the command line plus the derived run settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	enaserve string
	root     string // repository root (the working directory)
	conns    int    // client connections / closed-loop callers: nproc
}

var workloads = map[string]func(config) (*result, error){
	"simulate-mixed":    runSimulateMixed,
	"simulate-detailed": runSimulateDetailed,
	"explore-jobs":      runExploreJobs,
	"paper-figures":     runPaperFigures,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == figuresChildArg {
		os.Exit(figuresChild())
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: simulate-mixed, simulate-detailed, explore-jobs or paper-figures")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.enaserve, "enaserve", ".bench_build/enaserve", "enaserve binary built from this checkout")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.conns = runtime.NumCPU()
	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	cfg.root = wd
	run, ok := workloads[cfg.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if cfg.seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if cfg.trace {
		run = runTraced
	}

	start := time.Now()
	total0, steal0 := cpuTicks()
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	report := map[string]any{
		"host":     fingerprint(cfg, total0, steal0),
		"workload": cfg.workload,
		"trace":    cfg.trace,
		"wall_s":   time.Since(start).Seconds(),
		"details":  res.details,
	}
	if b, err := json.Marshal(report); err == nil {
		fmt.Println("perfbench report " + string(b))
	}
	names := make([]string, 0, len(res.metrics))
	for n, m := range res.metrics {
		if !finite(m.Value) {
			fail(fmt.Errorf("metric %s is not finite", n))
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	if res.attempted < 1 {
		fail(fmt.Errorf("no operation attempted"))
	}
	if err := checkDeclared(cfg, res.metrics); err != nil {
		fail(err)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.mismatches == 0, res.attempted, res.failed, res.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// checkDeclared verifies, when BENCHMARK.json is present, that the run
// printed exactly the metrics it declares for this mode, with their units.
func checkDeclared(cfg config, got map[string]metric) error {
	b, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return nil
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if cfg.trace {
		want = decl.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json but printed as %+v", m.Name, m.Unit, g)
		}
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func pct(part, whole float64) float64 {
	if whole == 0 {
		return math.NaN()
	}
	return 100 * part / whole
}
