package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ena/internal/service"
)

// Fixed operating points, set from the capacity measured on the reference
// host (README.md): about 30% and 70% of what the server sustains with
// nproc keep-alive connections. They are absolute rates so that a faster
// server shows lower latency at the same load rather than a moved target.
const (
	mixedLowRate  = 900.0 // requests/s
	mixedHighRate = 2000.0
	// The max_qps ladder: rung k offers mixedLadderBase * 1.05^k requests/s.
	mixedLadderBase  = 1000.0
	mixedLadderRatio = 1.05
	mixedLadderTop   = 40
	mixedLimitMs     = 10.0 // tail limit a ladder rung must meet
	mixedTailP       = 75.0

	detailedLowRate  = 8.0
	detailedHighRate = 15.0
	detailedLimitMs  = 1000.0
	detailedTailP    = 80.0

	setupRepeats = 3

	// mixedRounds and detailedRounds are how many interleaved
	// low/high/capacity slices a run makes.
	mixedRounds    = 5
	detailedRounds = 3
)

// mixedWarmup is the number of requests each simulate-mixed set-up sends
// before it counts as ready: enough to fill most of the 4096-entry cache.
const mixedWarmup = 6000

// detailedWarmup is how many detailed requests each simulate-detailed
// set-up sends per connection before it counts as ready.
const detailedWarmup = 4

// mixedLagLimitMs is the generator lateness (p99 over a round) above which
// a simulate-mixed round counts as hit by a host stall. Rounds on a quiet
// host stay under 2 ms; stalled ones run 5-10 ms late.
const mixedLagLimitMs = 2.5

// mixedRound is one interleaved low/high/capacity slice of simulate-mixed.
type mixedRound struct {
	low, high, cap phase
	lagMs          float64
}

// runSimulateMixed is the simulate-mixed workload: open-loop POST
// /v1/simulate over a Zipf(1.1) draw from a 16k-request pool.
func runSimulateMixed(cfg config) (*result, error) {
	pool, err := mixedPool(cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	check := make([]func(int, []byte) string, len(pool))
	for i := range pool {
		check[i] = checkSim(pool[i], nil)
	}
	opAt := func(i int) op { return op{body: pool[i].body, check: check[i]} }

	warm := func(c *client) phase {
		ws := newZipfStream(cfg.seed+1, len(pool))
		var mu sync.Mutex
		return closed(c, 0, mixedWarmup, func(int) op {
			mu.Lock()
			defer mu.Unlock()
			return opAt(ws.next())
		})
	}
	srv, c, setups, err := setupServer(cfg, res, warm)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	defer c.close()
	before, err := c.scrape()
	if err != nil {
		return nil, err
	}

	stream := newZipfStream(cfg.seed, len(pool))
	var mu sync.Mutex
	next := func(int) op {
		mu.Lock()
		defer mu.Unlock()
		return opAt(stream.next())
	}
	total := time.Duration(cfg.seconds) * time.Second
	// The low, high and capacity phases run as interleaved slices, so each
	// samples the whole run rather than one stretch of it. A round whose
	// generator ran late (the VM was stalled: the server's latencies then
	// measure the host) is kept in the accounting but another round is
	// added, up to twice as many; the metrics come from the rounds within
	// the lag limit, or from the two that ran most on time when fewer
	// were.
	var rounds []mixedRound
	quiet := 0
	for len(rounds) < 2*mixedRounds && quiet < mixedRounds {
		rd := mixedRound{
			low:  c.openLoop(mixedLowRate, total*25/100/mixedRounds, mixedLimitMs, time.Second, next),
			high: c.openLoop(mixedHighRate, total*30/100/mixedRounds, mixedLimitMs, time.Second, next),
			cap:  closed(c, total*25/100/mixedRounds, 0, next),
		}
		for _, p := range []phase{rd.low, rd.high, rd.cap} {
			res.add(p)
		}
		rd.lagMs = summarize(append(append([]float64(nil), rd.low.GenLag...), rd.high.GenLag...), 99).Tail
		if rd.lagMs <= mixedLagLimitMs {
			quiet++
		}
		rounds = append(rounds, rd)
	}
	var lags []float64
	for _, rd := range rounds {
		lags = append(lags, rd.lagMs)
	}
	sort.SliceStable(rounds, func(i, j int) bool { return rounds[i].lagMs < rounds[j].lagMs })
	var lows, highs, caps []phase
	for _, rd := range rounds[:max(2, quiet)] {
		lows, highs, caps = append(lows, rd.low), append(highs, rd.high), append(caps, rd.cap)
	}
	low, high, capPhase := merge(lows), merge(highs), merge(caps)
	maxQPS, probes := ladder(c, total*20/100, next, res)

	after, err := c.scrape()
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", srv.peakRSSMB(), "MB")
	latencyMetrics(res, low, high, mixedTailP)
	res.set("work_per_s", throughput(capPhase), "1/s")
	hits, misses := delta(before, after, "service.cache.hits"), delta(before, after, "service.cache.misses")
	res.details["max_qps"] = maxQPS
	res.details["ladder"] = probes
	res.details["service.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	res.details["service.sim.executions"] = delta(before, after, "service.sim.executions")
	res.details["service.admit.simulate.rejected"] = delta(before, after, "service.admit.simulate.rejected")
	res.details["http.conns_opened"] = c.dialed.Load()
	res.details["setup_samples_s"] = setups
	res.details["round_lag_p99_ms"] = lags
	phaseDetails(res, "low", low, mixedTailP)
	phaseDetails(res, "high", high, mixedTailP)
	phaseDetails(res, "capacity", capPhase, mixedTailP)
	genLag(res, low, high)
	return res, nil
}

// ladder finds max_qps: the highest rung of the fixed rate ladder whose
// p90 stays within mixedLimitMs, with at most 1% failed and no growing
// backlog. Rungs are probed by bisection within budget, each probe an
// equal share of it.
func ladder(c *client, budget time.Duration, next func(int) op, res *result) (float64, []map[string]any) {
	rung := func(k int) float64 { return math.Round(mixedLadderBase * math.Pow(mixedLadderRatio, float64(k))) }
	const probes = 3
	each := budget / probes
	lo, hi := -1, mixedLadderTop+1 // lo passes (or none yet), hi fails
	var log []map[string]any
	for i := 0; i < probes && hi-lo > 1; i++ {
		k := (lo + hi) / 2
		if lo < 0 && i == 0 {
			// Start at the rung nearest the high operating point.
			k = int(math.Round(math.Log(mixedHighRate/mixedLadderBase) / math.Log(mixedLadderRatio)))
		}
		p := c.openLoop(rung(k), each, mixedLimitMs, 2*each, next)
		res.add(p)
		pass := rungPasses(p, mixedTailP, mixedLimitMs)
		s := summarize(p.Lat, mixedTailP)
		log = append(log, map[string]any{"rate": rung(k), "pass": pass, "tail_ms": s.Tail,
			"failed": p.Failed, "dropped": p.Dropped, "backlog": p.Backlog})
		if pass {
			lo = k
		} else {
			hi = k
		}
	}
	if lo < 0 {
		// Not even the lowest probed rung met the limit: report the
		// offered rate below the lowest failing rung.
		return rung(hi - 1), log
	}
	return rung(lo), log
}

// rungPasses applies the ladder rule: the tail percentile of all due
// requests (failed and dropped ones counted as over the limit) within
// limitMs, at most 1% failed, and a backlog at the end of the schedule no
// larger than what the limit lets the server absorb.
func rungPasses(p phase, tailP, limitMs float64) bool {
	if p.Due == 0 {
		return false
	}
	if float64(p.Failed+p.Dropped) > 0.01*float64(p.Due) {
		return false
	}
	if float64(p.Backlog) > math.Max(4, p.Rate*limitMs/1000) {
		return false
	}
	return float64(p.Missed) <= float64(p.Due)*(100-tailP)/100
}

// setupServer starts enaserve setupRepeats times, each followed by warm;
// all but the last are stopped. It returns the last server with its client
// and every set-up time (exec to healthy plus warm-up).
func setupServer(cfg config, res *result, warm func(*client) phase, args ...string) (*server, *client, []float64, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		srv, d, err := startServer(cfg.enaserve, args...)
		if err != nil {
			return nil, nil, nil, err
		}
		c := newClient(srv.base, cfg.conns)
		t0 := time.Now()
		p := warm(c)
		setups = append(setups, (d + time.Since(t0)).Seconds())
		res.add(p)
		if i == setupRepeats-1 {
			return srv, c, setups, nil
		}
		c.close()
		srv.stop()
	}
	panic("unreachable")
}

// trimWindows is how many release-time windows a phase too small for
// windowed is cut into before its slowest quarter is dropped.
const trimWindows = 8

// latencyMetrics sets the four latency metrics from the low and high
// phases: good-side quartiles across release-time windows (see windowed),
// with as many windows, up to ten, as leave the tail rule met in each. A
// phase with samples for only one such window is summarized over all but
// its slowest quarter of trimWindows windows (see trimmedWindows) when
// those still meet the tail rule, and whole otherwise.
func latencyMetrics(res *result, low, high phase, tailP float64) {
	for _, p := range []struct {
		name string
		ph   phase
	}{{"low", low}, {"high", high}} {
		k := int(float64(len(p.ph.Lat)) * (100 - tailP) / 100 / minBeyond)
		k = max(1, min(10, k))
		if k == 1 {
			kept := trimmedWindows(p.ph.Lat, p.ph.At, p.ph.Span, trimWindows)
			if !tailOK(len(kept), tailP) {
				kept = p.ph.Lat
			}
			s := summarize(kept, tailP)
			res.set(p.name+".lat_p50_ms", s.P50, "ms")
			res.set(p.name+".lat_tail_ms", s.Tail, "ms")
			res.details[p.name+".windows"] = map[string]any{"windows": trimWindows, "kept_samples": len(kept), "tail_rule_met": s.TailOK}
			continue
		}
		p50, tail, ok, p50s, tails := windowed(p.ph.Lat, p.ph.At, p.ph.Span, k, tailP)
		res.set(p.name+".lat_p50_ms", p50, "ms")
		res.set(p.name+".lat_tail_ms", tail, "ms")
		res.details[p.name+".windows"] = map[string]any{"windows": k, "tail_rule_met": ok, "p50_ms": p50s, "tail_ms": tails}
	}
}

func phaseDetails(res *result, name string, p phase, tailP float64) {
	s := summarize(p.Lat, tailP)
	res.details[name] = map[string]any{
		"rate": p.Rate, "due": p.Due, "sent": p.Sent, "failed": p.Failed, "dropped": p.Dropped,
		"reasons": p.Reasons, "backlog": p.Backlog, "p50_ms": s.P50, "tail_ms": s.Tail,
		"tail_pct": s.TailP, "tail_rule_met": s.TailOK, "highest_tail_pct": highestTail(s.N), "samples": s.N, "mean_ms": s.Mean,
		"max_ms": s.Max, "fail_ratio": float64(p.Failed) / math.Max(1, float64(p.Sent)),
	}
}

// genLag records how late the open-loop generator handed requests over;
// a p99 above 5 ms marks the run's latencies as untrustworthy.
func genLag(res *result, ps ...phase) {
	var all []float64
	for _, p := range ps {
		all = append(all, p.GenLag...)
	}
	s := summarize(all, 99)
	res.details["gen.lag_p99_ms"] = s.Tail
	res.details["gen.valid"] = s.Tail <= 5
}

// runSimulateDetailed is the simulate-detailed workload: open-loop POST
// /v1/simulate with detailed: true and a fresh traffic seed per request, so
// the event-driven NoC (and serving) simulators do the work.
func runSimulateDetailed(cfg config) (*result, error) {
	res := newResult()
	r := rand.New(rand.NewSource(cfg.seed))
	seq := cfg.seed * 1_000_000
	var mu sync.Mutex
	nextItem := func() simItem {
		mu.Lock()
		defer mu.Unlock()
		seq++
		return detailedItem(r, seq)
	}
	// One request in sampleEvery is kept and re-checked against the
	// in-process NoC simulator after the load ends.
	const sampleEvery, maxSamples = 8, 12
	type sample struct {
		it  simItem
		got *service.SimulateResponse
	}
	var samples []sample
	counter := 0
	opOf := func(it simItem) op {
		mu.Lock()
		defer mu.Unlock()
		counter++
		var got *service.SimulateResponse
		if counter%sampleEvery == 0 && len(samples) < maxSamples {
			got = &service.SimulateResponse{}
			samples = append(samples, sample{it, got})
		}
		return op{body: it.body, check: checkSim(it, got)}
	}
	next := func(int) op { return opOf(nextItem()) }

	warm := func(c *client) phase { return closed(c, 0, detailedWarmup*c.conns, next) }
	srv, c, setups, err := setupServer(cfg, res, warm)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	defer c.close()
	before, err := c.scrape()
	if err != nil {
		return nil, err
	}
	total := time.Duration(cfg.seconds) * time.Second
	var lows, highs, caps []phase
	for r := 0; r < detailedRounds; r++ {
		lows = append(lows, c.openLoop(detailedLowRate, total*45/100/detailedRounds, detailedLimitMs, 5*time.Second, next))
		highs = append(highs, c.openLoop(detailedHighRate, total*25/100/detailedRounds, detailedLimitMs, 5*time.Second, next))
		caps = append(caps, closed(c, total*30/100/detailedRounds, 0, next))
	}
	low, high, capPhase := merge(lows), merge(highs), merge(caps)
	res.add(low)
	res.add(high)
	res.add(capPhase)
	after, err := c.scrape()
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", srv.peakRSSMB(), "MB")
	latencyMetrics(res, low, high, detailedTailP)
	res.set("work_per_s", throughput(capPhase), "1/s")

	// The NoC oracle runs after the load, so it never competes with the
	// server for the CPU while latencies are measured.
	checked := 0
	for _, s := range samples {
		if s.got.Key == "" || s.got.Degraded {
			continue // failed requests are already counted
		}
		lat, gbps, tflops, part, err := detailedOracle(s.it.rs, s.it.req.Seed)
		checked++
		if err != nil || part || s.got.MeanLatencyNs != lat || s.got.SustainedGBps != gbps || s.got.TFLOPs != tflops {
			res.failed++
			res.mismatches++
		}
	}
	res.details["noc_oracle_checked"] = checked
	res.details["service.sim.executions"] = delta(before, after, "service.sim.executions")
	res.details["service.sim.fallbacks"] = delta(before, after, "service.sim.fallbacks")
	res.details["service.admit.simulate.rejected"] = delta(before, after, "service.admit.simulate.rejected")
	res.details["http.conns_opened"] = c.dialed.Load()
	res.details["setup_samples_s"] = setups
	phaseDetails(res, "low", low, detailedTailP)
	phaseDetails(res, "high", high, detailedTailP)
	phaseDetails(res, "capacity", capPhase, detailedTailP)
	genLag(res, low, high)
	return res, nil
}

// merge joins phase slices into one phase whose sample times run on, slice
// after slice, so windows over the merged span fall within slices.
func merge(ps []phase) phase {
	out := phase{Rate: ps[0].Rate, Reasons: map[string]int{}}
	var offset float64
	for _, p := range ps {
		out.Due += p.Due
		out.Sent += p.Sent
		out.Failed += p.Failed
		out.Dropped += p.Dropped
		out.Missed += p.Missed
		out.Backlog = max(out.Backlog, p.Backlog)
		for k, v := range p.Reasons {
			out.Reasons[k] += v
		}
		out.Lat = append(out.Lat, p.Lat...)
		for _, at := range p.At {
			out.At = append(out.At, offset+at)
		}
		out.OK = append(out.OK, p.OK...)
		out.GenLag = append(out.GenLag, p.GenLag...)
		span := p.Span
		if span == 0 {
			span = p.Duration.Seconds()
		}
		offset += span
		out.Span += span
		out.Duration += p.Duration
	}
	return out
}

// throughput is the good-side (upper) quartile of a closed phase's
// completed-request rate over equal windows of completion time: up to ten,
// with at least 50 requests each on average.
func throughput(p phase) float64 {
	k := max(1, min(10, p.Sent/50))
	span := p.Span
	if span == 0 {
		span = p.Duration.Seconds()
	}
	counts := make([]float64, k)
	for i, at := range p.At {
		if p.OK != nil && !p.OK[i] {
			continue
		}
		counts[max(0, min(k-1, int(at/span*float64(k))))]++
	}
	for i := range counts {
		counts[i] /= span / float64(k)
	}
	return upperQuartile(counts)
}

// closed keeps every connection busy with back-to-back requests for dur,
// or, when n > 0, for exactly n requests. Its throughput is the server's
// capacity.
func closed(c *client, dur time.Duration, n int, next func(int) op) phase {
	var (
		mu    sync.Mutex
		count atomic.Int64
		wg    sync.WaitGroup
	)
	res := phase{Reasons: map[string]int{}}
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(count.Add(1) - 1)
				if (n > 0 && i >= n) || (n == 0 && !time.Now().Before(deadline)) {
					return
				}
				o := next(i)
				t0 := time.Now()
				status, body, err := c.do(bg, "POST", "/v1/simulate", o.body)
				lat := ms(time.Since(t0))
				reason := "transport"
				if err == nil {
					reason = o.check(status, body)
				}
				mu.Lock()
				res.Sent++
				res.Due++
				res.Lat = append(res.Lat, lat)
				res.At = append(res.At, time.Since(start).Seconds())
				res.OK = append(res.OK, reason == "")
				if reason != "" {
					res.Failed++
					res.Reasons[reason]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Duration = time.Since(start)
	return res
}
