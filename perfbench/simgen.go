package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/faults"
	"ena/internal/memsys"
	"ena/internal/noc"
	"ena/internal/perf"
	"ena/internal/powopt"
	"ena/internal/service"
	"ena/internal/workload"
)

// resolved is a simulate request resolved the way the service resolves it:
// the inputs the model actually runs on.
type resolved struct {
	cfg    *arch.NodeConfig
	kernel workload.Kernel
	opt    core.Options
	inj    *faults.Injection
	view   service.ConfigView
}

// resolveLocal applies the service's documented request defaults and
// resolution rules (config defaults, suite-name-then-DL-spec kernels,
// seeded fault masks, option names) using the model packages directly.
func resolveLocal(r service.SimulateRequest) (resolved, error) {
	if r.CUs == 0 {
		r.CUs = arch.ProvisionedCUs
	}
	if r.FreqMHz == 0 {
		r.FreqMHz = 1000
	}
	if r.BWTBps == 0 {
		r.BWTBps = 3
	}
	k, err := workload.ByName(r.Kernel)
	if err != nil {
		if k, err = workload.ParseDLKernel(r.Kernel); err != nil {
			return resolved{}, err
		}
	}
	var pol memsys.Policy
	switch r.Options.Policy {
	case "":
		pol = memsys.SoftwareManaged
	case "static-interleave":
		pol = memsys.StaticInterleave
	case "hardware-cache":
		pol = memsys.HardwareCache
	default:
		return resolved{}, fmt.Errorf("policy %q", r.Options.Policy)
	}
	var tech powopt.Technique
	for _, n := range r.Options.Optimizations {
		bit, ok := techBits[n]
		if !ok {
			return resolved{}, fmt.Errorf("optimization %q", n)
		}
		tech |= bit
	}
	cfg := arch.EHP(r.CUs, r.FreqMHz, r.BWTBps)
	if err := cfg.Validate(); err != nil {
		return resolved{}, err
	}
	out := resolved{
		kernel: k,
		view:   service.ConfigView{CUs: r.CUs, FreqMHz: r.FreqMHz, BWTBps: r.BWTBps},
		opt: core.Options{
			MissFrac:         r.Options.MissFrac,
			UseAppExtTraffic: r.Options.UseAppExtTraffic,
			Policy:           pol,
			Optimizations:    tech,
			TempC:            r.Options.TempC,
			ExcludeExternal:  r.Options.ExcludeExternal,
		},
	}
	mask, err := faults.ParseMask(r.FaultMask)
	if err != nil {
		return resolved{}, err
	}
	if !mask.Empty() {
		if out.inj, err = faults.Apply(cfg, mask, r.Seed); err != nil {
			return resolved{}, err
		}
		cfg = out.inj.Config
	}
	out.cfg = cfg
	return out, nil
}

// downLinks are the interposer links the fault mask took down, as the
// detailed NoC phase receives them.
func (rs resolved) downLinks() []noc.LinkFault {
	if rs.inj == nil {
		return nil
	}
	return rs.inj.DownLinks
}

var techBits = map[string]powopt.Technique{
	"ntc":             powopt.NTC,
	"async-cu":        powopt.AsyncCU,
	"async-routers":   powopt.AsyncRouters,
	"low-power-links": powopt.LowPowerLinks,
	"compression":     powopt.Compression,
	"all":             powopt.All,
}

// analyticOracle is the analytic part of the response the service must
// return for rs: core.SimulateContext on the resolved inputs.
func analyticOracle(rs resolved) (service.SimulateResponse, error) {
	res, err := core.SimulateContext(context.Background(), rs.cfg, rs.kernel, rs.opt)
	if err != nil {
		return service.SimulateResponse{}, err
	}
	want := service.SimulateResponse{
		Config:   rs.view,
		Kernel:   rs.kernel.Name,
		TFLOPs:   res.Perf.TFLOPs,
		Bound:    res.Perf.Bound.String(),
		MissFrac: res.MissFrac,
		NodeW:    res.NodeW,
		PackageW: res.Power.PackageW(),
		GFperW:   res.GFperW,
	}
	if rs.inj != nil {
		want.FaultMask = rs.inj.Resolved.String()
		want.Disabled = rs.inj.Disabled
	}
	return want, nil
}

// detailedOracle is what the detailed phase must add for rs at seed: the
// event-driven NoC result and the roofline refined with it, as the service
// computes them. partitioned reports a mask that disconnects the network.
func detailedOracle(rs resolved, seed int64) (lat, gbps, tflops float64, partitioned bool, err error) {
	nr, err := noc.SimulateContext(context.Background(), rs.cfg, rs.kernel, noc.Options{Seed: seed, DownLinks: rs.downLinks()})
	if err == noc.ErrPartitioned {
		return 0, 0, 0, true, nil
	}
	if err != nil {
		return 0, 0, 0, false, err
	}
	bw := rs.cfg.InPackageBWTBps()
	if sus := nr.SustainedGBps / 1000; sus > 0 && sus < bw {
		bw = sus
	}
	eff := 0.0
	if bw > 0 {
		eff = float64(rs.cfg.TotalCUs()) * rs.cfg.GPUFreqMHz() * 1e6 / (bw * 1e12)
	}
	pr := perf.Estimate(rs.cfg, rs.kernel, perf.MemEnv{BWTBps: bw, LatencyNs: nr.MeanLatencyNs, EffOpsPerByte: eff})
	return nr.MeanLatencyNs, nr.SustainedGBps, pr.TFLOPs, false, nil
}

// sameAnalytic compares the analytic fields of a response with the oracle,
// exactly. withPerf=false skips TFLOPs and GFperW, which the detailed phase
// replaces.
func sameAnalytic(got, want service.SimulateResponse, withPerf bool) bool {
	if got.Config != want.Config || got.Kernel != want.Kernel || got.Bound != want.Bound ||
		got.MissFrac != want.MissFrac || got.NodeW != want.NodeW || got.PackageW != want.PackageW ||
		got.FaultMask != want.FaultMask || strings.Join(got.Disabled, ",") != strings.Join(want.Disabled, ",") {
		return false
	}
	return !withPerf || (got.TFLOPs == want.TFLOPs && got.GFperW == want.GFperW)
}

// simItem is one generated simulate request with its resolved inputs and
// the analytic oracle.
type simItem struct {
	req  service.SimulateRequest
	body []byte
	rs   resolved
	want service.SimulateResponse
}

func newSimItem(req service.SimulateRequest) (simItem, error) {
	rs, err := resolveLocal(req)
	if err != nil {
		return simItem{}, err
	}
	want, err := analyticOracle(rs)
	if err != nil {
		return simItem{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return simItem{}, err
	}
	return simItem{req: req, body: body, rs: rs, want: want}, nil
}

var (
	gridCUs   = dse.DefaultSpace().CUs
	gridFreqs = dse.DefaultSpace().FreqsMHz
	gridBWs   = dse.DefaultSpace().BWsTBps
)

// drawConfig picks a design point: on the paper's grid half the time,
// otherwise anywhere in the accepted envelope (off-grid CU counts,
// frequencies and bandwidths).
func drawConfig(r *rand.Rand) (int, float64, float64) {
	if r.Intn(2) == 0 {
		return gridCUs[r.Intn(len(gridCUs))], gridFreqs[r.Intn(len(gridFreqs))], gridBWs[r.Intn(len(gridBWs))]
	}
	return 128 + r.Intn(257), 600 + 25*float64(r.Intn(41)), 0.5 + 0.25*float64(r.Intn(31))
}

func drawSuiteKernel(r *rand.Rand) string {
	names := workload.Names()
	return names[r.Intn(len(names))]
}

// drawDLSpec returns a GEMM or attention spec string.
func drawDLSpec(r *rand.Rand) string {
	pick := func(v ...int) int { return v[r.Intn(len(v))] }
	dt := []string{"fp16", "bf16", "fp32"}[r.Intn(3)]
	if r.Intn(2) == 0 {
		return fmt.Sprintf("gemm:%dx%dx%d:%s",
			pick(256, 512, 1024, 2048, 4096, 8192), pick(256, 512, 1024, 2048, 4096, 8192),
			pick(256, 512, 1024, 2048, 4096, 8192), dt)
	}
	return fmt.Sprintf("attn:%dx%dx%dx%dx%d:%s",
		pick(1, 2, 4, 8), pick(8, 16, 32), pick(1, 128, 512, 2048), pick(512, 1024, 2048, 4096), pick(64, 128), dt)
}

// drawNodeMask returns an intra-node fault mask.
func drawNodeMask(r *rand.Rand) string {
	switch r.Intn(5) {
	case 0:
		return fmt.Sprintf("gpu:%d", 1+r.Intn(3))
	case 1:
		return fmt.Sprintf("gpu@%d", r.Intn(8))
	case 2:
		return fmt.Sprintf("hbm@%d", r.Intn(8))
	case 3:
		return fmt.Sprintf("hbm:%d", 1+r.Intn(2))
	}
	return fmt.Sprintf("gpu@%d,hbm@%d", r.Intn(8), r.Intn(8))
}

func drawOptions(r *rand.Rand) service.SimOptions {
	var o service.SimOptions
	switch r.Intn(4) {
	case 0:
		o.Policy = "static-interleave"
		o.UseAppExtTraffic = true
	case 1:
		o.Policy = "hardware-cache"
		o.UseAppExtTraffic = true
	case 2:
		o.MissFrac = float64(1+r.Intn(9)) / 20
		o.ExcludeExternal = r.Intn(2) == 0
	}
	names := []string{"ntc", "async-cu", "async-routers", "low-power-links", "compression", "all"}
	for _, n := range names {
		if r.Intn(3) == 0 {
			o.Optimizations = append(o.Optimizations, n)
		}
	}
	if r.Intn(2) == 0 {
		o.TempC = float64(60 + 5*r.Intn(8))
	}
	return o
}

// mixedPoolSize is the distinct-request pool of simulate-mixed: about four
// times the service's 4096-entry result cache, so LRU hits and misses both
// continue in steady state.
const mixedPoolSize = 16384

// mixedPool generates the distinct analytic requests of simulate-mixed:
// about 65% Table-I kernels on and off the paper grid, 20% DL GEMM/attention
// specs, 10% fault masks and 5% policy/optimization options. Every request
// resolves and simulates in process; one that does not is redrawn.
func mixedPool(seed int64) ([]simItem, error) {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, mixedPoolSize)
	pool := make([]simItem, 0, mixedPoolSize)
	for tries := 0; len(pool) < mixedPoolSize; tries++ {
		if tries > 4*mixedPoolSize {
			return nil, fmt.Errorf("mixed pool: only %d distinct valid requests", len(pool))
		}
		var req service.SimulateRequest
		req.CUs, req.FreqMHz, req.BWTBps = drawConfig(r)
		switch u := r.Float64(); {
		case u < 0.65:
			req.Kernel = drawSuiteKernel(r)
		case u < 0.85:
			req.Kernel = drawDLSpec(r)
		case u < 0.95:
			req.Kernel = drawSuiteKernel(r)
			req.FaultMask = drawNodeMask(r)
			req.Seed = int64(1 + r.Intn(64))
		default:
			req.Kernel = drawSuiteKernel(r)
			req.Options = drawOptions(r)
		}
		it, err := newSimItem(req)
		if err != nil {
			continue
		}
		if k := string(it.body); !seen[k] {
			seen[k] = true
			pool = append(pool, it)
		}
	}
	return pool, nil
}

// zipfStream draws pool indices with Zipf(1.1) popularity.
type zipfStream struct{ z *rand.Zipf }

func newZipfStream(seed int64, n int) *zipfStream {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &zipfStream{z: rand.NewZipf(r, 1.1, 1, uint64(n-1))}
}

func (s *zipfStream) next() int { return int(s.z.Uint64()) }

// detailedItem draws a simulate-detailed request with traffic seed seq,
// fresh on every request. In every ten consecutive seeds, two carry an
// interposer-link fault that forces rerouting, one is a DL spec under the
// serving scenario, and seven are plain Table-I kernels.
func detailedItem(r *rand.Rand, seq int64) simItem {
	for {
		var req service.SimulateRequest
		req.Detailed = true
		req.Seed = seq
		req.CUs, req.FreqMHz, req.BWTBps = drawConfig(r)
		switch seq % 10 {
		case 0, 1:
			req.Kernel = drawSuiteKernel(r)
			a := r.Intn(6)
			b := (a + 1 + r.Intn(5)) % 6
			req.FaultMask = fmt.Sprintf("link@%d-%d", a, b)
		case 2:
			req.Kernel = drawDLSpec(r)
			req.Scenario = "serving"
			req.Requests = 2000
			req.Batches = "1,4,16"
		default:
			req.Kernel = drawSuiteKernel(r)
		}
		if it, err := newSimItem(req); err == nil {
			return it
		}
	}
}

// checkSim returns the check of a simulate response against it's oracle:
// the analytic fields exactly, and for detailed requests a detailed,
// non-degraded answer. got receives the decoded response when non-nil.
func checkSim(it simItem, got *service.SimulateResponse) func(int, []byte) string {
	return func(status int, body []byte) string {
		if status == 503 {
			return "shed-503"
		}
		if status != 200 {
			return fmt.Sprintf("status-%d", status)
		}
		var resp service.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return "decode"
		}
		if got != nil {
			*got = resp
		}
		if resp.Degraded {
			return "degraded"
		}
		if it.req.Detailed {
			if !resp.Detailed || !finite(resp.MeanLatencyNs) || resp.MeanLatencyNs <= 0 {
				return "not-detailed"
			}
			if it.req.Scenario == "serving" && len(resp.Serving) == 0 {
				return "mismatch"
			}
		}
		if !sameAnalytic(resp, it.want, !it.req.Detailed) {
			return "mismatch"
		}
		return ""
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func nan() float64 { return math.NaN() }
