package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"ena/internal/arch"
	"ena/internal/cluster"
	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/powopt"
	"ena/internal/service"
	"ena/internal/surrogate"
	"ena/internal/workload"
)

// Job classes of explore-jobs, in the proportions of every block of 20
// jobs: 10 default-space exhaustive explores, 4 over expanded packaging
// spaces, 3 surrogate explores with the default options users get, and 3
// /v1/scale jobs.
var jobBlock = []string{
	"default", "default", "default", "default", "default", "default", "default", "default", "default", "default",
	"expanded", "expanded", "expanded", "expanded",
	"surrogate", "surrogate", "surrogate",
	"scale", "scale", "scale",
}

const (
	jobPollEvery = 2 * time.Millisecond
	jobTailP     = 90.0
	jobRounds    = 2 // interleaved low/high slices per run
)

// jobSpec is one generated job: the route, the encoded body and the
// decoded request the oracle replays.
type jobSpec struct {
	class   string
	path    string
	body    []byte
	explore *service.ExploreRequest
	scale   *service.ScaleRequest
}

var (
	expandedChiplets = []int{2, 4, 8}
	expandedHBMs     = []float64{8, 16, 32}
	expandedExtMods  = []int{2, 3, 4}
)

// pickInts and pickFloats return n of vals, in order.
func pickInts(r *rand.Rand, vals []int, n int) []int {
	idx := r.Perm(len(vals))[:n]
	sort.Ints(idx)
	out := make([]int, n)
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out
}

func pickFloats(r *rand.Rand, vals []float64, n int) []float64 {
	idx := r.Perm(len(vals))[:n]
	sort.Ints(idx)
	out := make([]float64, n)
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out
}

// jobList generates n jobs from seed. Budgets vary on a 0.1 W grid and the
// surrogate and scale seeds are drawn per job, so jobs rarely share a
// result-cache key. What sets a job's cost most is fixed by its slot in the
// block (see drawJob), so every block costs about the same whatever the
// seed.
func jobList(seed int64, n int) []jobSpec {
	r := rand.New(rand.NewSource(seed))
	names := workload.Names()
	var out []jobSpec
	for len(out) < n {
		block := append([]string(nil), jobBlock...)
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		slot := map[string]int{}
		masked := r.Intn(3) // the scale slot that carries a node mask
		for _, class := range block {
			out = append(out, drawJob(r, class, slot[class], masked, names))
			slot[class]++
		}
	}
	return out[:n]
}

// scaleKernels are the suite kernels that communicate: all but MaxFlops,
// whose unmasked scale curves cost about a quarter of the others'.
func scaleKernels() []string {
	var out []string
	for _, n := range workload.Names() {
		if n != "MaxFlops" {
			out = append(out, n)
		}
	}
	return out
}

// drawJob draws the slot-th job of class in a block. The slot fixes the
// fields that set the job's cost most: the default class sweeps the full
// suite in slots 0 and 1 and a random four-kernel subset otherwise; the
// surrogate class gets evaluation budgets 200, 265 and 330 (about 1.5%, 2%
// and 2.5% of the 13,230 points); the scale class runs one job per
// topology, each over 4096 nodes plus a random subset of the small sizes,
// and the one in slot masked carries a node mask while the other two also
// run 32768 nodes with a communicating kernel (see scaleKernels).
func drawJob(r *rand.Rand, class string, slot, masked int, names []string) jobSpec {
	budget := float64(1200+r.Intn(801)) / 10 // 120.0 .. 200.0 W
	switch class {
	case "scale":
		kernels := scaleKernels()
		if slot == masked {
			kernels = names
		}
		req := &service.ScaleRequest{
			Kernel:   kernels[r.Intn(len(kernels))],
			Topology: fabric.Kinds()[slot%len(fabric.Kinds())],
			Mode:     []string{"weak", "strong"}[r.Intn(2)],
		}
		for _, n := range []int{1, 8, 64, 512} {
			if r.Intn(2) == 0 {
				req.Nodes = append(req.Nodes, n)
			}
		}
		req.Nodes = append(req.Nodes, 4096)
		if slot == masked {
			req.FaultMask = []string{"node:1", "node:2", "node@3"}[r.Intn(3)]
			req.Seed = int64(1 + r.Intn(1000))
		} else {
			req.Nodes = append(req.Nodes, 32768)
		}
		body, _ := json.Marshal(req)
		return jobSpec{class: class, path: "/v1/scale", body: body, scale: req}
	case "expanded":
		// Two of the three values on every packaging axis: 8x the
		// default space (3,920 points), which two values vary by job.
		req := &service.ExploreRequest{
			GPUChiplets: pickInts(r, expandedChiplets, 2),
			HBMStackGBs: pickFloats(r, expandedHBMs, 2),
			ExtModules:  pickInts(r, expandedExtMods, 2),
			BudgetW:     budget,
		}
		body, _ := json.Marshal(req)
		return jobSpec{class: class, path: "/v1/explore", body: body, explore: req}
	case "surrogate":
		req := &service.ExploreRequest{
			GPUChiplets: expandedChiplets,
			HBMStackGBs: expandedHBMs,
			ExtModules:  expandedExtMods,
			BudgetW:     budget,
			Explorer:    "surrogate",
			EvalBudget:  []int{200, 265, 330}[slot%3],
			Seed:        int64(1 + r.Intn(1_000_000)),
		}
		body, _ := json.Marshal(req)
		return jobSpec{class: class, path: "/v1/explore", body: body, explore: req}
	}
	req := &service.ExploreRequest{BudgetW: budget}
	if slot >= 2 {
		pick := r.Perm(len(names))[:4]
		sort.Ints(pick)
		for _, i := range pick {
			req.Kernels = append(req.Kernels, names[i])
		}
	}
	for _, t := range []string{"ntc", "async-cu", "async-routers", "low-power-links", "compression"} {
		if r.Intn(4) == 0 {
			req.Optimizations = append(req.Optimizations, t)
		}
	}
	body, _ := json.Marshal(req)
	return jobSpec{class: class, path: "/v1/explore", body: body, explore: req}
}

// goldenJob is the default-space full-suite explore at the paper's 160 W
// budget; its best-mean point must be 320 CUs / 1000 MHz / 3 TB/s.
func goldenJob() jobSpec {
	req := &service.ExploreRequest{}
	body, _ := json.Marshal(req)
	return jobSpec{class: "golden", path: "/v1/explore", body: body, explore: req}
}

// jobRun is one job's client-side record.
type jobRun struct {
	spec     jobSpec
	latency  time.Duration // submit until the poll that saw done
	view     service.JobView
	observed time.Time // when the client saw the terminal state
	result   json.RawMessage
	reason   string // "" for a job that finished done
	points   int
	block    int // the block of len(jobBlock) jobs it was run in
}

// runJob submits spec and polls until the job is terminal.
func runJob(c *client, spec jobSpec) jobRun {
	out := jobRun{spec: spec}
	t0 := time.Now()
	status, body, err := c.do(bg, "POST", spec.path, spec.body)
	if err != nil {
		out.reason = "transport"
		return out
	}
	if status != 202 {
		out.reason = fmt.Sprintf("submit-%d", status)
		return out
	}
	var sub struct {
		Job service.JobView `json:"job"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		out.reason = "decode"
		return out
	}
	for {
		var got struct {
			Job struct {
				service.JobView
				Result json.RawMessage `json:"result"`
			} `json:"job"`
		}
		status, body, err := c.do(bg, "GET", "/v1/jobs/"+sub.Job.ID, nil)
		if err != nil || status != 200 || json.Unmarshal(body, &got) != nil {
			out.reason = "poll"
			return out
		}
		if got.Job.State.Terminal() {
			out.observed = time.Now()
			out.latency = out.observed.Sub(t0)
			out.view = got.Job.JobView
			out.result = got.Job.Result
			if got.Job.State != service.JobDone {
				out.reason = "job-" + string(got.Job.State)
			}
			break
		}
		time.Sleep(jobPollEvery)
	}
	if out.reason == "" && spec.explore != nil {
		var er service.ExploreResult
		if json.Unmarshal(out.result, &er) != nil {
			out.reason = "decode"
		} else {
			out.points = er.Points
			if spec.class == "golden" && (er.BestMean.CUs != arch.BestMeanCUs ||
				er.BestMean.FreqMHz != arch.BestMeanFreqMHz || er.BestMean.BWTBps != arch.BestMeanBWTBps) {
				out.reason = "mismatch"
			}
		}
	}
	return out
}

// runExploreJobs is the explore-jobs workload: closed-loop job clients
// against an enaserve with a fresh store directory, one client in the low
// phase and one per core in the high phase.
func runExploreJobs(cfg config) (*result, error) {
	res := newResult()
	tmpRoot := os.TempDir()
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	var srv *server
	var c *client
	var setups []float64
	var mu sync.Mutex
	// The warm-up block comes from its own seed, so no measured job is a
	// result-cache hit on it.
	warmup := jobList(cfg.seed^0x3a3a, len(jobBlock))
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(tmpRoot, "store-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		s, d, err := startServer(cfg.enaserve, "-store-dir", dir)
		if err != nil {
			return nil, err
		}
		cl := newClient(s.base, cfg.conns)
		t0 := time.Now()
		g := runJob(cl, goldenJob())
		res.attempted++
		if g.reason != "" {
			res.failed++
			if g.reason == "mismatch" {
				res.mismatches++
			}
		}
		// Warm-up: one block of the job mix, nproc jobs at a time.
		closedLoop(cfg.conns, 0, func(_, w int) {
			for j := w; j < len(warmup); j += cfg.conns {
				jr := runJob(cl, warmup[j])
				mu.Lock()
				res.attempted++
				if jr.reason != "" {
					res.failed++
				}
				mu.Unlock()
			}
		})
		setups = append(setups, (d + time.Since(t0)).Seconds())
		if i < setupRepeats-1 {
			cl.close()
			s.stop()
			continue
		}
		srv, c = s, cl
	}
	defer srv.stop()
	defer c.close()
	before, err := c.scrape()
	if err != nil {
		return nil, err
	}

	// Clients take whole blocks of len(jobBlock) jobs, so every phase
	// runs the class mix exactly; a phase ends on a block boundary.
	jobs := jobList(cfg.seed, 200*len(jobBlock)) // far more blocks than a run reaches
	var (
		runs      = map[string][]jobRun{}
		nextBlock int
	)
	phaseRun := func(name string, clients int, dur time.Duration) time.Duration {
		t0 := time.Now()
		closedLoop(clients, dur, func(_, _ int) {
			mu.Lock()
			b := nextBlock
			nextBlock++
			mu.Unlock()
			for _, spec := range jobs[b*len(jobBlock) : (b+1)*len(jobBlock)] {
				jr := runJob(c, spec)
				jr.block = b
				mu.Lock()
				runs[name] = append(runs[name], jr)
				mu.Unlock()
			}
		})
		return time.Since(t0)
	}
	// One client, then one per core, in interleaved slices so each phase
	// samples the whole run; then, on a slow host, more blocks until the
	// blocks each phase keeps (see jobLatency) hold the jobs the tail rule
	// needs.
	total := time.Duration(cfg.seconds) * time.Second
	var highWall time.Duration
	for r := 0; r < jobRounds; r++ {
		phaseRun("low", 1, total/2/jobRounds)
		highWall += phaseRun("high", cfg.conns, total/2/jobRounds)
	}
	for !tailOK(keptJobs(runs["low"]), jobTailP) {
		phaseRun("low", 1, 0)
	}
	for !tailOK(keptJobs(runs["high"]), jobTailP) {
		highWall += phaseRun("high", cfg.conns, 0)
	}
	after, err := c.scrape()
	if err != nil {
		return nil, err
	}

	points := 0
	for name, rs := range runs {
		for _, jr := range rs {
			res.attempted++
			if jr.reason != "" {
				res.failed++
				if jr.reason == "mismatch" {
					res.mismatches++
				}
			}
			if name == "high" && jr.reason == "" {
				points += jr.points
			}
		}
	}
	bad := oracleJobs(cfg.seed, append(append([]jobRun(nil), runs["low"]...), runs["high"]...))
	res.failed += int64(bad)
	res.mismatches += int64(bad)

	lowP50, lowTail := jobLatency(runs["low"])
	highP50, highTail := jobLatency(runs["high"])
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", srv.peakRSSMB(), "MB")
	res.set("low.lat_p50_ms", lowP50, "ms")
	res.set("low.lat_tail_ms", lowTail, "ms")
	res.set("high.lat_p50_ms", highP50, "ms")
	res.set("high.lat_tail_ms", highTail, "ms")
	res.set("work_per_s", float64(points)/highWall.Seconds(), "1/s")
	res.details["job_p50_s"] = highP50 / 1000
	res.details["job_tail_s"] = highTail / 1000
	res.details["points_per_s"] = float64(points) / highWall.Seconds()
	res.details["low.block_mean_ms"] = blockMeans(runs["low"])
	res.details["high.block_mean_ms"] = blockMeans(runs["high"])
	res.details["low"] = jobPhaseDetails(runs["low"])
	res.details["high"] = jobPhaseDetails(runs["high"])
	res.details["setup_samples_s"] = setups
	for _, n := range []string{"store.writes", "store.hits", "store.misses", "jobs.journal_appends", "jobs.checkpoints", "service.jobs.completed"} {
		res.details[n] = delta(before, after, n)
	}
	sched := schedTimes(append(append([]jobRun(nil), runs["low"]...), runs["high"]...))
	for k, v := range sched {
		res.details[k] = v
	}
	return res, nil
}

// keptBlocks groups a phase's jobs by block, ranks the blocks by their
// mean job latency and keeps all but the slowest quarter (rounded down).
// Every block runs the same stratified class mix, so blocks are comparable
// windows: a host-noise burst slows a few of them and is left out, while a
// change to the program moves every block.
func keptBlocks(rs []jobRun) [][]jobRun {
	byBlock := map[int][]jobRun{}
	for _, jr := range rs {
		byBlock[jr.block] = append(byBlock[jr.block], jr)
	}
	blocks := make([][]jobRun, 0, len(byBlock))
	mean := map[int]float64{}
	for b, js := range byBlock {
		var sum float64
		for _, jr := range js {
			sum += ms(jr.latency)
		}
		mean[b] = sum / float64(len(js))
		blocks = append(blocks, js)
	}
	sort.Slice(blocks, func(i, j int) bool { return mean[blocks[i][0].block] < mean[blocks[j][0].block] })
	return blocks[:len(blocks)-len(blocks)/4]
}

// blockMeans is each block's mean job latency in ms, in run order.
func blockMeans(rs []jobRun) []float64 {
	sum, n := map[int]float64{}, map[int]int{}
	for _, jr := range rs {
		sum[jr.block] += ms(jr.latency)
		n[jr.block]++
	}
	var blocks []int
	for b := range sum {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = sum[b] / float64(n[b])
	}
	return out
}

// keptJobs is how many jobs the kept blocks of a phase hold.
func keptJobs(rs []jobRun) int {
	n := 0
	for _, js := range keptBlocks(rs) {
		n += len(js)
	}
	return n
}

// jobLatency reduces a phase's job latencies, over its kept blocks, to the
// two reported figures. The p50 is the geometric mean of the four job
// classes' median latencies: a median over the whole mix would sit on the
// boundary between the ~20 ms default/scale jobs and the ~200 ms
// expanded/surrogate ones and jump between them. The tail is the jobTailP
// percentile over every kept job.
func jobLatency(rs []jobRun) (p50, tail float64) {
	byClass := map[string][]float64{}
	var all []float64
	for _, js := range keptBlocks(rs) {
		for _, jr := range js {
			byClass[jr.spec.class] = append(byClass[jr.spec.class], ms(jr.latency))
			all = append(all, ms(jr.latency))
		}
	}
	var logSum float64
	for _, v := range byClass {
		logSum += math.Log(median(v))
	}
	return math.Exp(logSum / float64(len(byClass))), summarize(all, jobTailP).Tail
}

func jobPhaseDetails(rs []jobRun) map[string]any {
	var lat []float64
	for _, jr := range rs {
		lat = append(lat, ms(jr.latency))
	}
	s := summarize(lat, jobTailP)
	byClass := map[string][]float64{}
	failed := 0
	reasons := map[string]int{}
	for _, jr := range rs {
		byClass[jr.spec.class] = append(byClass[jr.spec.class], ms(jr.latency))
		if jr.reason != "" {
			failed++
			reasons[jr.reason]++
		}
	}
	classes := map[string]any{}
	for k, v := range byClass {
		classes[k] = map[string]any{"jobs": len(v), "p50_ms": median(v)}
	}
	return map[string]any{"jobs": len(rs), "failed": failed, "reasons": reasons, "p50_ms": s.P50,
		"tail_ms": s.Tail, "tail_pct": s.TailP, "tail_rule_met": s.TailOK, "classes": classes}
}

// schedTimes derives the scheduler layer's figures from JobView
// timestamps: queue wait (Started - Created), run (Finished - Started) and
// the client's poll gap (observed done - Finished), as medians in ms.
func schedTimes(rs []jobRun) map[string]float64 {
	var wait, run, gap []float64
	for _, jr := range rs {
		v := jr.view
		if jr.reason != "" || v.Started == nil || v.Finished == nil {
			continue
		}
		wait = append(wait, ms(v.Started.Sub(v.Created)))
		run = append(run, ms(v.Finished.Sub(*v.Started)))
		gap = append(gap, ms(jr.observed.Sub(*v.Finished)))
	}
	return map[string]float64{
		"sched.queue_wait_ms_p50": median(wait),
		"sched.run_ms_p50":        median(run),
		"sched.poll_gap_ms_p50":   median(gap),
	}
}

// oracleSample is how many completed jobs per run are re-run in process
// and compared field by field.
const oracleSample = 6

// oracleJobs re-runs a seeded sample of completed jobs in process (dse,
// surrogate or cluster.EvalScale) after the load has ended and returns
// how many results differ.
func oracleJobs(seed int64, rs []jobRun) int {
	var done []jobRun
	for _, jr := range rs {
		if jr.reason == "" {
			done = append(done, jr)
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x0ac1e))
	r.Shuffle(len(done), func(i, j int) { done[i], done[j] = done[j], done[i] })
	bad := 0
	for i := 0; i < len(done) && i < oracleSample; i++ {
		if !jobMatches(done[i]) {
			bad++
		}
	}
	return bad
}

func jobMatches(jr jobRun) bool {
	ctx := context.Background()
	if jr.spec.scale != nil {
		var got service.ScaleResult
		if json.Unmarshal(jr.result, &got) != nil {
			return false
		}
		want, err := scaleOracle(*jr.spec.scale)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Points, want)
	}
	var got service.ExploreResult
	if json.Unmarshal(jr.result, &got) != nil {
		return false
	}
	want, err := exploreOracle(ctx, *jr.spec.explore)
	if err != nil {
		return false
	}
	got.Key = ""
	return reflect.DeepEqual(got, want)
}

// exploreInputs resolves an explore request's space, kernels, budget and
// optimizations the way the service documents them.
func exploreInputs(req service.ExploreRequest) (dse.Space, []workload.Kernel, []string, float64, powopt.Technique, error) {
	space := dse.DefaultSpace()
	if len(req.GPUChiplets) > 0 {
		space.GPUChiplets = req.GPUChiplets
	}
	if len(req.HBMStackGBs) > 0 {
		space.HBMStackGBs = req.HBMStackGBs
	}
	if len(req.ExtModules) > 0 {
		space.ExtModules = req.ExtModules
	}
	ks := workload.Suite()
	if len(req.Kernels) > 0 {
		ks = nil
		for _, n := range req.Kernels {
			k, err := workload.ByName(n)
			if err != nil {
				return space, nil, nil, 0, 0, err
			}
			ks = append(ks, k)
		}
	}
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	budget := req.BudgetW
	if budget == 0 {
		budget = arch.NodePowerBudgetW
	}
	var tech powopt.Technique
	for _, n := range req.Optimizations {
		tech |= techBits[n]
	}
	return space, ks, names, budget, tech, nil
}

// exploreOracle runs the request in process and shapes the outcome the way
// an ExploreResult reports it.
func exploreOracle(ctx context.Context, req service.ExploreRequest) (service.ExploreResult, error) {
	space, ks, names, budget, tech, err := exploreInputs(req)
	if err != nil {
		return service.ExploreResult{}, err
	}
	var out dse.Outcome
	explorer := "exhaustive"
	if req.Explorer == "surrogate" {
		explorer = "surrogate"
		sr, err := surrogate.Explore(ctx, space, ks, budget, tech,
			surrogate.Options{Budget: req.EvalBudget, Seed: req.Seed}, dse.Instr{},
			surrogate.LocalEvaluator(ks, budget, tech, nil))
		if err != nil {
			return service.ExploreResult{}, err
		}
		out = sr.Outcome
	} else if out, err = dse.ExploreContext(ctx, space, ks, budget, tech, dse.Instr{}); err != nil {
		return service.ExploreResult{}, err
	}
	return shapeExplore(out, space, names, budget, tech, explorer), nil
}

// shapeExplore is the ExploreResult fields a client reads, minus the key.
func shapeExplore(out dse.Outcome, space dse.Space, names []string, budget float64, tech powopt.Technique, explorer string) service.ExploreResult {
	res := service.ExploreResult{
		Points:    len(out.Evals),
		BudgetW:   budget,
		Explorer:  explorer,
		SpaceSize: space.Size(),
		BestMean: service.BestPoint{
			CUs: out.BestMean.Point.CUs, FreqMHz: out.BestMean.Point.FreqMHz, BWTBps: out.BestMean.Point.BWTBps,
			GPUChiplets: out.BestMean.Point.GPUChiplets, HBMStackGB: out.BestMean.Point.HBMStackGB,
			ExtModules: out.BestMean.Point.ExtModules, MeanScore: out.BestMean.MeanScore,
		},
	}
	for name, bit := range techBits {
		if name != "all" && tech&bit == bit {
			res.Optimizations = append(res.Optimizations, name)
		}
	}
	sort.Strings(res.Optimizations)
	for _, ev := range out.Evals {
		if ev.FeasibleAll {
			res.Feasible++
		}
	}
	for i, k := range names {
		if i >= len(out.BestPerKernel) {
			break
		}
		b := out.BestPerKernel[i]
		kb := service.KernelBest{Kernel: k, CUs: b.Point.CUs, FreqMHz: b.Point.FreqMHz, BWTBps: b.Point.BWTBps}
		if i < len(b.PerfTFLOPs) {
			kb.TFLOPs = b.PerfTFLOPs[i]
			kb.BudgetW = b.BudgetW[i]
		}
		res.PerKernel = append(res.PerKernel, kb)
	}
	return res
}

// scaleOracle evaluates every node count of a scale request with
// cluster.EvalScale at the kernel's sustained node rate.
func scaleOracle(req service.ScaleRequest) ([]service.ScalePoint, error) {
	k, err := workload.ByName(req.Kernel)
	if err != nil {
		return nil, err
	}
	mode := fabric.Weak
	if req.Mode == "strong" {
		mode = fabric.Strong
	}
	mask, err := faults.ParseMask(req.FaultMask)
	if err != nil {
		return nil, err
	}
	rate := exp.NodeRateFor(k)
	var out []service.ScalePoint
	for _, n := range req.Nodes {
		se, err := cluster.EvalScale(req.Topology, fabric.DefaultLinkSpec(), k, rate, n, mode, mask, req.Seed)
		if err != nil {
			return nil, err
		}
		sp := service.ScalePoint{
			Nodes: n, Efficiency: se.Point.Efficiency, DeliveredEF: se.Point.DeliveredTFLOPs / 1e6,
			IdealEF: rate * float64(n) / 1e6, FailedNodes: se.FailedNodes, Partitioned: se.Partitioned,
		}
		if !se.Partitioned {
			sp.DegradedEfficiency = se.DegradedEfficiency
		}
		out = append(out, sp)
	}
	return out, nil
}
