package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"ena/internal/arch"
	"ena/internal/cluster"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/noc"
	"ena/internal/obs"
	"ena/internal/service"
	"ena/internal/serving"
	"ena/internal/store"
	"ena/internal/surrogate"
	"ena/internal/thermal"
	"ena/internal/workload"
)

// The traced run replays a workload's generated inputs down the cost ladder
// and times every rung by calling that layer's public function from here:
//
//	HTTP (enaserve child, keep-alive)
//	  -> handler in process (service.New(...).Handler() via httptest)
//	    -> core.SimulateContext -> core.SimulatePerf / core.SimulateFromPerf
//
// plus noc, serving, dse, surrogate, cluster, store, fabric, thermal and the
// exp registry beside them. A layer's self time is its rung minus the rung
// below. Nothing inside the program is instrumented. Every per-layer metric
// is printed on every workload; the workload's own layers get the larger
// samples (scaled with -seconds), and ladder.unattributed_pct and
// trace.overhead_pct describe the workload's own ladder.

// tracer accumulates one traced run.
type tracer struct {
	cfg config
	res *result
	own string // the workload's layer group
}

func (t *tracer) full(group string) bool { return t.own == group }

func (t *tracer) set(name string, v float64, unit string) { t.res.set(name, v, unit) }

func runTraced(cfg config) (*result, error) {
	t := &tracer{cfg: cfg, res: newResult(), own: cfg.workload}
	steps := []func() error{t.simulateLadder, t.detailedLadder, t.jobLayers, t.figureLayers}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return t.res, nil
}

// usP50 is the median of durations in microseconds.
func usP50(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / 1e3
	}
	return median(v)
}

// handlerCall runs one request through an in-process handler.
func handlerCall(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// inProcess is a fresh in-process service for the handler rung.
func inProcess() (http.Handler, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := service.New(ctx, service.Config{})
	return srv.Handler(), func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Drain(dctx)
		dcancel()
		cancel()
	}
}

// simulateLadder replays a Zipf draw of the simulate-mixed pool down the
// HTTP -> handler -> core ladder.
func (t *tracer) simulateLadder() error {
	pool, err := mixedPool(t.cfg.seed)
	if err != nil {
		return err
	}
	n := 800
	if t.full("simulate-mixed") {
		n = 200 * t.cfg.seconds
	}
	stream := newZipfStream(t.cfg.seed, len(pool))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = stream.next()
	}

	// HTTP rung: one keep-alive connection, requests back to back.
	srv, _, err := startServer(t.cfg.enaserve)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base, 1)
	defer c.close()
	before, err := c.scrape()
	if err != nil {
		return err
	}
	httpLat := make([]time.Duration, n)
	httpMisses := 0
	for i, idx := range seq {
		t0 := time.Now()
		status, body, err := c.do(bg, "POST", "/v1/simulate", pool[idx].body)
		httpLat[i] = time.Since(t0)
		t.count(err == nil && checkSim(pool[idx], nil)(status, body) == "")
		var r service.SimulateResponse
		if json.Unmarshal(body, &r) == nil && !r.Cached {
			httpMisses++
		}
	}
	after, err := c.scrape()
	if err != nil {
		return err
	}
	execs := delta(before, after, "service.sim.executions")
	if execs != int64(httpMisses) {
		// The counter must equal the replay's distinct misses.
		t.res.failed++
		t.res.mismatches++
	}
	hits, misses := delta(before, after, "service.cache.hits"), delta(before, after, "service.cache.misses")
	conns := c.dialed.Load()

	// Untraced reference: the same server at the low open-loop rate. Its
	// median is the end-to-end figure the ladder must add up to.
	var ref phase
	if t.full("simulate-mixed") {
		cl := newClient(srv.base, t.cfg.conns)
		ref = cl.openLoop(mixedLowRate, 2*time.Second, mixedLimitMs, time.Second, func(int) op {
			it := pool[stream.next()]
			return op{body: it.body, check: checkSim(it, nil)}
		})
		cl.close()
		t.res.add(ref)
	}
	admitRejected := delta(before, after, "service.admit.simulate.rejected")

	// Handler rung: a fresh in-process server sees the same sequence, so
	// its hits and misses line up with the HTTP rung's.
	h, closeH := inProcess()
	handlerLat := make([]time.Duration, n)
	var hit, miss []time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, idx := range seq {
		t0 := time.Now()
		rec := handlerCall(h, "POST", "/v1/simulate", pool[idx].body)
		handlerLat[i] = time.Since(t0)
		var r service.SimulateResponse
		if json.Unmarshal(rec.Body.Bytes(), &r) == nil && r.Cached {
			hit = append(hit, handlerLat[i])
		} else {
			miss = append(miss, handlerLat[i])
		}
	}
	runtime.ReadMemStats(&ms1)
	closeH()
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(n)

	// Untraced handler replay on another fresh server: one timer around
	// the loop, no per-call clocks. The difference is the tracing cost.
	h2, closeH2 := inProcess()
	t0 := time.Now()
	for _, idx := range seq {
		handlerCall(h2, "POST", "/v1/simulate", pool[idx].body)
	}
	untraced := time.Since(t0)
	closeH2()
	var tracedSum time.Duration
	for _, d := range handlerLat {
		tracedSum += d
	}

	// Core rung and its two phases, on every distinct request of the draw;
	// fault-mask resolution and DL-spec parsing beside them.
	seen := map[int]bool{}
	var simT, perfT, powT, applyT, parseT []time.Duration
	ctx := context.Background()
	for _, idx := range seq {
		if seen[idx] {
			continue
		}
		seen[idx] = true
		it := pool[idx]
		rs := it.rs
		t0 := time.Now()
		res, _ := core.SimulateContext(ctx, rs.cfg, rs.kernel, rs.opt)
		simT = append(simT, time.Since(t0))
		t0 = time.Now()
		pp := core.SimulatePerf(rs.cfg, rs.kernel, rs.opt)
		t1 := time.Now()
		split := core.SimulateFromPerf(rs.cfg, rs.kernel, rs.opt, pp)
		perfT = append(perfT, t1.Sub(t0))
		powT = append(powT, time.Since(t1))
		if split.NodeW != res.NodeW || split.Perf.TFLOPs != res.Perf.TFLOPs {
			t.res.failed++
			t.res.mismatches++
		}
		if it.req.FaultMask != "" {
			t0 := time.Now()
			m, err := faults.ParseMask(it.req.FaultMask)
			if err == nil {
				_, err = faults.Apply(arch.EHP(it.req.CUs, it.req.FreqMHz, it.req.BWTBps), m, it.req.Seed)
			}
			applyT = append(applyT, time.Since(t0))
			t.count(err == nil)
		}
		if _, err := workload.ByName(it.req.Kernel); err != nil {
			t0 := time.Now()
			_, err := workload.ParseDLKernel(it.req.Kernel)
			parseT = append(parseT, time.Since(t0))
			t.count(err == nil)
		}
	}

	httpP50, handlerP50 := usP50(httpLat), usP50(handlerLat)
	coreP50 := usP50(simT)
	t.set("http.self_us_p50", httpP50-handlerP50, "us")
	t.set("http.conns_opened", float64(conns), "count")
	t.set("service.hit_us_p50", usP50(hit), "us")
	t.set("service.miss_us_p50", usP50(miss), "us")
	t.set("service.self_us_p50", usP50(miss)-coreP50, "us")
	t.set("service.allocs_per_req", allocs, "count")
	t.set("service.cache.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	t.set("service.sim.executions", float64(execs), "count")
	t.set("core.simulate_us_p50", coreP50, "us")
	t.set("core.perf_phase_ns", usP50(perfT)*1e3, "ns")
	t.set("core.power_phase_ns", usP50(powT)*1e3, "ns")
	t.set("faults.apply_us_p50", usP50(applyT), "us")
	t.set("workload.parse_dl_us_p50", usP50(parseT), "us")
	t.res.details["simulate_ladder"] = map[string]any{
		"requests": n, "http_us_p50": httpP50, "handler_us_p50": handlerP50,
		"hits": len(hit), "misses": len(miss), "distinct": len(seen),
		"service.admit.simulate.rejected": admitRejected,
	}
	if t.full("simulate-mixed") {
		e2e := summarize(ref.Lat, mixedTailP).P50 * 1e3
		t.set("ladder.unattributed_pct", pct(e2e-httpP50, e2e), "%")
		t.set("trace.overhead_pct", pct(float64(tracedSum-untraced), float64(untraced)), "%")
		t.set("service.admit.rejected", float64(admitRejected), "count")
		t.set("gen.lag_p99_ms", summarize(ref.GenLag, 99).Tail, "ms")
		t.res.details["e2e_us_p50"] = e2e
	}
	return nil
}

// count records one replayed operation and whether it checked out.
func (t *tracer) count(ok bool) {
	t.res.attempted++
	if !ok {
		t.res.failed++
		t.res.mismatches++
	}
}

// detailedLadder replays simulate-detailed requests: HTTP, the in-process
// handler, and the event-driven NoC and serving simulators beneath them.
func (t *tracer) detailedLadder() error {
	n := 4
	if t.full("simulate-detailed") {
		n = max(4, t.cfg.seconds*4/5)
	}
	// Traffic seeds 1, 2, 3, ... of the workload's sequence: the first
	// four already hold a link fault and a serving request.
	r := rand.New(rand.NewSource(t.cfg.seed))
	items := make([]simItem, n)
	for i := range items {
		items[i] = detailedItem(r, t.cfg.seed*1_000_000+int64(i)+1)
	}

	srv, _, err := startServer(t.cfg.enaserve)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base, 1)
	defer c.close()
	before, err := c.scrape()
	if err != nil {
		return err
	}
	var httpLat, handlerLat, nocT, servT []time.Duration
	var nocAllocs []float64
	for _, it := range items {
		t0 := time.Now()
		status, body, err := c.do(bg, "POST", "/v1/simulate", it.body)
		httpLat = append(httpLat, time.Since(t0))
		t.count(err == nil && checkSim(it, nil)(status, body) == "")
	}
	var ref phase
	if t.full("simulate-detailed") {
		cl := newClient(srv.base, t.cfg.conns)
		seq := int64(0)
		ref = cl.openLoop(detailedLowRate, 3*time.Second, detailedLimitMs, 5*time.Second, func(int) op {
			seq++
			it := detailedItem(r, t.cfg.seed*1_000_000+500_000+seq)
			return op{body: it.body, check: checkSim(it, nil)}
		})
		cl.close()
		t.res.add(ref)
	}
	after, err := c.scrape()
	if err != nil {
		return err
	}

	h, closeH := inProcess()
	for _, it := range items {
		t0 := time.Now()
		handlerCall(h, "POST", "/v1/simulate", it.body)
		handlerLat = append(handlerLat, time.Since(t0))
	}
	closeH()
	ctx := context.Background()
	for _, it := range items {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		_, err := noc.SimulateContext(ctx, it.rs.cfg, it.rs.kernel, noc.Options{Seed: it.req.Seed, DownLinks: it.rs.downLinks()})
		nocT = append(nocT, time.Since(t0))
		runtime.ReadMemStats(&m1)
		nocAllocs = append(nocAllocs, float64(m1.Mallocs-m0.Mallocs))
		t.count(err == nil)
		if it.req.Scenario == "serving" {
			t0 := time.Now()
			err := servingReplay(it)
			servT = append(servT, time.Since(t0))
			t.count(err == nil)
		}
	}
	// Untraced NoC pass: the same simulations under one timer, without the
	// per-call clocks and MemStats reads. The difference is the tracing cost.
	var nocTraced time.Duration
	for _, d := range nocT {
		nocTraced += d
	}
	t0 := time.Now()
	for _, it := range items {
		noc.SimulateContext(ctx, it.rs.cfg, it.rs.kernel, noc.Options{Seed: it.req.Seed, DownLinks: it.rs.downLinks()})
	}
	nocUntraced := time.Since(t0)
	nocMs := usP50(nocT) / 1e3
	t.set("noc.sim_ms_p50", nocMs, "ms")
	t.set("noc.requests_per_s", 200_000/(nocMs/1e3), "1/s") // noc's default request count
	t.set("noc.allocs_per_sim", median(nocAllocs), "count")
	t.set("serving.sim_ms_p50", usP50(servT)/1e3, "ms")
	httpMs, handlerMs := usP50(httpLat)/1e3, usP50(handlerLat)/1e3
	t.res.details["detailed_ladder"] = map[string]any{
		"requests": len(items), "http_ms_p50": httpMs, "handler_ms_p50": handlerMs, "noc_ms_p50": nocMs,
		"service.sim.fallbacks": delta(before, after, "service.sim.fallbacks"),
	}
	if t.full("simulate-detailed") {
		e2e := summarize(ref.Lat, detailedTailP).P50
		t.set("ladder.unattributed_pct", pct(e2e-httpMs, e2e), "%")
		t.set("trace.overhead_pct", pct(float64(nocTraced-nocUntraced), float64(nocUntraced)), "%")
		t.set("service.admit.rejected", float64(delta(before, after, "service.admit.simulate.rejected")), "count")
		t.set("gen.lag_p99_ms", summarize(ref.GenLag, 99).Tail, "ms")
		t.res.details["e2e_ms_p50"] = e2e
	}
	return nil
}

// servingReplay runs the serving scenario of a detailed item the way the
// service does: one roofline simulation per batch size for the service
// times, then the event-driven batched server at 70% of each point's
// capacity.
func servingReplay(it simItem) error {
	dl, err := workload.ParseDL(it.req.Kernel)
	if err != nil {
		return err
	}
	batches, err := workload.ParseBatchList(it.req.Batches)
	if err != nil {
		return err
	}
	maxB := batches[len(batches)-1]
	svc := make([]float64, maxB)
	for b := 1; b <= maxB; b++ {
		sb, err := dl.WithBatch(b)
		if err != nil {
			return err
		}
		k, err := sb.Kernel()
		if err != nil {
			return err
		}
		r := core.Simulate(it.rs.cfg, k, it.rs.opt)
		svc[b-1] = sb.FLOPs() / (r.Perf.TFLOPs * 1e3)
	}
	for i, b := range batches {
		capacity := float64(b) / svc[b-1] * 1e9
		if _, err := serving.Simulate(serving.Options{
			QPS: 0.7 * capacity, MaxBatch: b, Requests: it.req.Requests, Seed: it.req.Seed + int64(i),
			ServiceNs: func(n int) float64 { return svc[n-1] },
		}); err != nil {
			return err
		}
	}
	return nil
}

// timedStore wraps the result store the coordinator checkpoints into,
// timing every Put and Get.
type timedStore struct {
	st         *store.Store
	mu         sync.Mutex
	puts, gets []time.Duration
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	b, ok := s.st.Get(key)
	d := time.Since(t0)
	s.mu.Lock()
	s.gets = append(s.gets, d)
	s.mu.Unlock()
	return b, ok
}

func (s *timedStore) Put(key string, payload []byte) error {
	t0 := time.Now()
	err := s.st.Put(key, payload)
	d := time.Since(t0)
	s.mu.Lock()
	s.puts = append(s.puts, d)
	s.mu.Unlock()
	return err
}

// jobLayers covers the explore-jobs layers: scheduler timestamps from a
// store-backed enaserve, and in process dse points and cached sweeps, the
// checkpointing coordinator, the surrogate model against its evaluator, the
// store and fabric scale evaluations.
func (t *tracer) jobLayers() error {
	full := t.full("explore-jobs")
	jobs := jobList(t.cfg.seed, 40)
	byClass := map[string][]jobSpec{}
	for _, j := range jobs {
		byClass[j.class] = append(byClass[j.class], j)
	}
	take := func(class string, n int) []jobSpec {
		v := byClass[class]
		if len(v) > n {
			v = v[:n]
		}
		return v
	}
	nSched, nEach := 6, 1
	if full {
		nSched, nEach = max(6, t.cfg.seconds), max(1, t.cfg.seconds/7)
	}
	tmp, err := os.MkdirTemp(os.TempDir(), "trace-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Scheduler layer: jobs one at a time on a store-backed server.
	srv, _, err := startServer(t.cfg.enaserve, "-store-dir", tmp+"/srv")
	if err != nil {
		return err
	}
	c := newClient(srv.base, 1)
	before, err := c.scrape()
	if err != nil {
		srv.stop()
		return err
	}
	var runs []jobRun
	var lat []float64
	for _, spec := range jobs[:nSched] {
		jr := runJob(c, spec)
		t.count(jr.reason == "")
		runs = append(runs, jr)
		lat = append(lat, ms(jr.latency))
	}
	after, err := c.scrape()
	c.close()
	srv.stop()
	if err != nil {
		return err
	}
	sched := schedTimes(runs)
	for _, k := range []string{"sched.queue_wait_ms_p50", "sched.run_ms_p50", "sched.poll_gap_ms_p50"} {
		t.set(k, sched[k], "ms")
	}
	t.set("jobs.journal_appends", float64(delta(before, after, "jobs.journal_appends")), "count")
	t.set("store.writes", float64(delta(before, after, "store.writes")), "count")

	ctx := context.Background()
	// dse: single points of the jobs' spaces, then cached sweeps.
	var pointT []time.Duration
	pr := rand.New(rand.NewSource(t.cfg.seed))
	for _, spec := range take("expanded", nEach) {
		space, ks, _, budget, tech, err := exploreInputs(*spec.explore)
		if err != nil {
			return err
		}
		pts := space.Points()
		for i := 0; i < 100; i++ {
			p := pts[pr.Intn(len(pts))]
			t0 := time.Now()
			_, err := dse.EvaluatePointContext(ctx, p, ks, budget, tech)
			pointT = append(pointT, time.Since(t0))
			t.count(err == nil)
		}
	}
	t.set("dse.point_us_p50", usP50(pointT), "us")
	cache := dse.NewPerfCache()
	var sweepT []time.Duration
	for _, spec := range take("default", nEach+2) {
		space, ks, _, budget, tech, err := exploreInputs(*spec.explore)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = dse.ExploreCachedContext(ctx, space, ks, budget, tech, dse.Instr{}, cache)
		sweepT = append(sweepT, time.Since(t0))
		t.count(err == nil)
	}
	t.set("dse.cached_sweep_ms_p50", usP50(sweepT)/1e3, "ms")

	// cluster + store: the checkpointing coordinator against the plain sweep
	// of the same job.
	st, err := store.Open(tmp+"/ckpt", 256<<20, obs.NewRegistry())
	if err != nil {
		return err
	}
	ts := &timedStore{st: st}
	coord := cluster.NewCoordinator(nil, obs.NewRegistry())
	coord.EnableCheckpoints(ts, 0)
	var selfMs []float64
	for i, spec := range append(take("default", nEach+1), take("expanded", nEach)...) {
		space, ks, names, budget, tech, err := exploreInputs(*spec.explore)
		if err != nil {
			return err
		}
		t0 := time.Now()
		plain, err := dse.ExploreContext(ctx, space, ks, budget, tech, dse.Instr{})
		dseT := time.Since(t0)
		t.count(err == nil)
		t0 = time.Now()
		sharded, err := coord.Explore(ctx, space, ks, names, budget, tech, fmt.Sprintf("trace-%d-%d", t.cfg.seed, i))
		coordT := time.Since(t0)
		t.count(err == nil && sharded.BestMean.Point == plain.BestMean.Point && len(sharded.Evals) == len(plain.Evals))
		selfMs = append(selfMs, ms(coordT-dseT))
	}
	t.set("cluster.self_ms_p50", median(selfMs), "ms")
	t.set("cluster.checkpoints", float64(len(ts.puts)), "count")
	t.set("store.put_us_p50", usP50(ts.puts), "us")
	t.set("store.get_us_p50", usP50(ts.gets), "us")

	// surrogate: model time is the total minus the time spent inside the
	// evaluator it is handed.
	var modelMs, evalMs []float64
	scache := dse.NewPerfCache()
	for _, spec := range take("surrogate", nEach) {
		space, ks, _, budget, tech, err := exploreInputs(*spec.explore)
		if err != nil {
			return err
		}
		inner := surrogate.LocalEvaluator(ks, budget, tech, scache)
		var inEval time.Duration
		ev := func(ctx context.Context, pts []dse.Point) ([]dse.Eval, error) {
			t0 := time.Now()
			out, err := inner(ctx, pts)
			inEval += time.Since(t0)
			return out, err
		}
		t0 := time.Now()
		_, err = surrogate.Explore(ctx, space, ks, budget, tech,
			surrogate.Options{Budget: spec.explore.EvalBudget, Seed: spec.explore.Seed}, dse.Instr{}, ev)
		total := time.Since(t0)
		t.count(err == nil)
		modelMs = append(modelMs, ms(total-inEval))
		evalMs = append(evalMs, ms(inEval))
	}
	t.set("surrogate.model_ms_p50", median(modelMs), "ms")
	t.set("surrogate.eval_ms_p50", median(evalMs), "ms")

	// fabric: every node count of the scale jobs through cluster.EvalScale.
	var scaleT []time.Duration
	for _, spec := range take("scale", nEach+1) {
		req := *spec.scale
		k, _ := workload.ByName(req.Kernel)
		mode := fabric.Weak
		if req.Mode == "strong" {
			mode = fabric.Strong
		}
		mask, _ := faults.ParseMask(req.FaultMask)
		rate := exp.NodeRateFor(k)
		for _, n := range req.Nodes {
			t0 := time.Now()
			_, err := cluster.EvalScale(req.Topology, fabric.DefaultLinkSpec(), k, rate, n, mode, mask, req.Seed)
			scaleT = append(scaleT, time.Since(t0))
			t.count(err == nil)
		}
	}
	t.set("fabric.scale_ms_p50", usP50(scaleT)/1e3, "ms")

	if full {
		e2e := median(lat)
		parts := sched["sched.queue_wait_ms_p50"] + sched["sched.run_ms_p50"] + sched["sched.poll_gap_ms_p50"]
		t.set("ladder.unattributed_pct", pct(e2e-parts, e2e), "%")
		// The tracing cost here is the timed store wrapper: the same
		// checkpointed sweep through the bare store.
		spec := take("expanded", 1)[0]
		space, ks, names, budget, tech, _ := exploreInputs(*spec.explore)
		bare := cluster.NewCoordinator(nil, obs.NewRegistry())
		bare.EnableCheckpoints(st, 0)
		t0 := time.Now()
		bare.Explore(ctx, space, ks, names, budget, tech, "trace-bare")
		untraced := time.Since(t0)
		t0 = time.Now()
		coord.Explore(ctx, space, ks, names, budget, tech, "trace-timed")
		traced := time.Since(t0)
		t.set("trace.overhead_pct", pct(float64(traced-untraced), float64(untraced)), "%")
		t.set("service.admit.rejected", float64(delta(before, after, "service.admit.explore.rejected")), "count")
		t.set("gen.lag_p99_ms", 0, "ms") // closed loop: no generator schedule
		t.res.details["e2e_job_ms_p50"] = e2e
	}
	return nil
}

// figureLayers times the experiment registry per figure, one fabric.Curve
// per topology kind (time and bytes allocated), and the thermal solver on
// every suite kernel at the best-mean design point.
func (t *tracer) figureLayers() error {
	full := t.full("paper-figures")
	regens := 1
	if full {
		regens = max(2, t.cfg.seconds/8)
	}
	figT := map[string][]float64{}
	var totals []float64
	var golden string
	for i := 0; i < regens; i++ {
		t0 := time.Now()
		text, times, err := regenerate()
		if err != nil {
			return err
		}
		totals = append(totals, ms(time.Since(t0)))
		if i == 0 {
			golden = text
		}
		t.count(text == golden)
		for id, d := range times {
			figT[id] = append(figT[id], ms(d))
		}
	}
	var sumExp float64
	for _, id := range figureIDs {
		v := median(figT[id])
		sumExp += v
		t.set("exp."+id+"_ms", v, "ms")
	}
	// The scaling extension is not part of a paper-figures regeneration;
	// it is timed once here, through the same registry call.
	scaling, err := exp.ByID("scaling")
	if err != nil {
		return err
	}
	t0 := time.Now()
	scaling.Run().Render()
	t.set("exp.scaling_ms", ms(time.Since(t0)), "ms")

	var curveMs, allocMB []float64
	k := workload.MaxFlops()
	rate := exp.NodeRateFor(k)
	for _, kind := range fabric.Kinds() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		_, err := fabric.Curve(kind, fabric.DefaultLinkSpec(), k, rate, []int{1, 50, 1000, 20000, 100000}, fabric.Weak, 8)
		curveMs = append(curveMs, ms(time.Since(t0)))
		runtime.ReadMemStats(&m1)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		t.count(err == nil)
	}
	t.set("fabric.curve_ms", median(curveMs), "ms")
	t.set("fabric.alloc_mb", median(allocMB), "MB")

	var solveMs, iters []float64
	cfg := arch.BestMeanEHP()
	for _, kk := range workload.Suite() {
		pa := exp.AssignThermalPower(cfg, core.Simulate(cfg, kk, core.Options{}))
		t0 := time.Now()
		sol, err := thermal.Solve(thermal.EHPFloorplan(), pa, thermal.DefaultAmbientC)
		solveMs = append(solveMs, ms(time.Since(t0)))
		t.count(err == nil)
		if err == nil {
			iters = append(iters, float64(sol.Iterations))
		}
	}
	t.set("thermal.solve_ms_p50", median(solveMs), "ms")
	t.set("thermal.iterations_p50", median(iters), "count")

	if full {
		// Untraced reference: one regeneration timed as a whole.
		t0 := time.Now()
		text, _, err := regenerate()
		if err != nil {
			return err
		}
		untraced := ms(time.Since(t0))
		t.count(text == golden)
		e2e := median(totals)
		t.set("ladder.unattributed_pct", pct(e2e-sumExp, e2e), "%")
		t.set("trace.overhead_pct", pct(e2e-untraced, untraced), "%")
		t.set("service.admit.rejected", 0, "count") // in process: no admission layer
		t.set("gen.lag_p99_ms", 0, "ms")            // closed loop: no generator schedule
	}
	return nil
}
