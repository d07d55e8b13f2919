package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ena/internal/obs"
	"ena/internal/service"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {100, 90, true}, {99, 90, false}, {10, 0, true}, {9, 0, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 99.9}, {1000, 99}, {100, 90}, {200, 95}, {19, 0}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeFallsBackToMax(t *testing.T) {
	var v []float64
	for i := 1; i <= 50; i++ {
		v = append(v, float64(i))
	}
	s := summarize(v, 90) // 50 samples leave 5 beyond p90: rule not met
	if s.TailOK || s.TailP != 100 || s.Tail != 50 {
		t.Fatalf("summary %+v: want the maximum, flagged", s)
	}
	if s.P50 != 25.5 {
		t.Fatalf("p50 %v, want 25.5", s.P50)
	}
	s = summarize(append(v, v...), 90) // 100 samples: exactly 10 beyond
	if !s.TailOK || s.TailP != 90 {
		t.Fatalf("summary %+v: want p90 with the rule met", s)
	}
}

func TestWindowedIgnoresOneNoisyWindow(t *testing.T) {
	var lat, at []float64
	for i := 0; i < 1000; i++ {
		v := 1.0 + float64(i%100)/100 // 1.00 .. 1.99 in every window
		if i >= 900 {
			v *= 50 // the last window is hit by host noise
		}
		lat = append(lat, v)
		at = append(at, float64(i)/1000)
	}
	p50, tail, ok, _, _ := windowed(lat, at, 1, 10, 90)
	if !ok || p50 > 2 || tail > 2 {
		t.Fatalf("windowed = %v, %v, %v: the noisy window moved the figure", p50, tail, ok)
	}
}

func TestTrimmedWindowsDropsTheSlowestQuarter(t *testing.T) {
	var lat, at []float64
	for i := 0; i < 80; i++ {
		v := 1.0 + float64(i%10)/10
		if i >= 70 {
			v *= 50 // the last of 8 windows is hit by host noise
		}
		lat = append(lat, v)
		at = append(at, float64(i)/80)
	}
	kept := trimmedWindows(lat, at, 1, 8)
	if len(kept) != 60 {
		t.Fatalf("kept %d samples, want the 6 fastest of 8 windows of 10", len(kept))
	}
	for _, v := range kept {
		if v > 2 {
			t.Fatalf("kept a sample of %v from the noisy window", v)
		}
	}
}

func TestKeptBlocksAndJobLatency(t *testing.T) {
	var rs []jobRun
	for b := 0; b < 8; b++ {
		for i, class := range jobBlock {
			d := time.Duration(10+i) * time.Millisecond
			if class == "expanded" || class == "surrogate" {
				d *= 10
			}
			if b == 3 {
				d *= 4 // one block hit by host noise
			}
			rs = append(rs, jobRun{spec: jobSpec{class: class}, latency: d, block: b})
		}
	}
	if got := keptJobs(rs); got != 6*len(jobBlock) {
		t.Fatalf("kept %d jobs, want 6 of 8 blocks", got)
	}
	p50, tail := jobLatency(rs)
	// Class medians over the kept blocks: default 14.5, expanded 215,
	// surrogate 250, scale 28 ms.
	want := math.Pow(14.5*215*250*28, 0.25)
	if math.Abs(p50-want) > 1e-9 {
		t.Fatalf("p50 %v, want the geometric mean of class medians %v", p50, want)
	}
	if tail > 260 {
		t.Fatalf("tail %v ms: the noisy block was not left out", tail)
	}
}

func TestJobBlocksAreStratified(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		jobs := jobList(seed, 10*len(jobBlock))
		for b := 0; b < 10; b++ {
			full, masked := 0, 0
			budgets := map[int]bool{}
			topologies := map[string]bool{}
			for _, j := range jobs[b*len(jobBlock) : (b+1)*len(jobBlock)] {
				switch j.class {
				case "default":
					if len(j.explore.Kernels) == 0 {
						full++
					}
				case "surrogate":
					budgets[j.explore.EvalBudget] = true
				case "scale":
					topologies[j.scale.Topology] = true
					if j.scale.FaultMask != "" {
						masked++
					} else if j.scale.Kernel == "MaxFlops" {
						t.Fatalf("seed %d block %d: unmasked MaxFlops scale job", seed, b)
					}
				}
			}
			if full != 2 || masked != 1 || len(budgets) != 3 || len(topologies) != 3 {
				t.Fatalf("seed %d block %d: %d full-suite, %d masked, budgets %v, topologies %v",
					seed, b, full, masked, budgets, topologies)
			}
		}
	}
}

// stallServer answers every request after delay, except request stallAt,
// which is held for stall first.
func stallServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
}

func okCheck(status int, _ []byte) string {
	if status != 200 {
		return "status"
	}
	return ""
}

func TestDueTimeChargesStallToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := stallServer(5, stall)
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	// 100 requests/s for 1 s over one connection: the stall on request 5
	// holds the connection while ~30 more requests come due.
	p := c.openLoop(100, time.Second, 50, 5*time.Second, func(int) op { return op{body: []byte(`{}`), check: okCheck} })
	if p.Sent != 100 || p.Failed != 0 {
		t.Fatalf("sent %d failed %d, want 100 and 0", p.Sent, p.Failed)
	}
	late := 0
	for _, l := range p.Lat {
		if l > 100 {
			late++
		}
	}
	// Timed from send instead of due time, only the stalled request
	// would be slow. Timed from due, the requests queued behind it carry
	// the stall too.
	if late < 15 {
		t.Fatalf("%d requests over 100 ms, want the ~25 queued behind the stall", late)
	}
	if p.Missed < late {
		t.Fatalf("missed %d < %d requests over the 50 ms limit", p.Missed, late)
	}
	if rungPasses(p, 90, 50) {
		t.Fatal("a phase with a quarter of its requests over the limit passed the ladder rule")
	}
}

func TestFailureAndLimitAccounting(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 10 {
		case 0:
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"shed"}`))
		case 5:
			json.NewEncoder(w).Encode(service.SimulateResponse{Kernel: "MaxFlops", Degraded: true})
		default:
			json.NewEncoder(w).Encode(service.SimulateResponse{Kernel: "MaxFlops"})
		}
	}))
	defer srv.Close()
	it := simItem{req: service.SimulateRequest{Kernel: "MaxFlops"}, want: service.SimulateResponse{Kernel: "MaxFlops"}}
	c := newClient(srv.URL, 2)
	defer c.close()
	p := c.openLoop(200, 500*time.Millisecond, 1000, 5*time.Second, func(int) op { return op{body: []byte(`{}`), check: checkSim(it, nil)} })
	if p.Sent != 100 {
		t.Fatalf("sent %d, want 100", p.Sent)
	}
	if p.Reasons["shed-503"] != 10 || p.Reasons["degraded"] != 10 || p.Failed != 20 {
		t.Fatalf("reasons %v failed %d: want 10 shed, 10 degraded", p.Reasons, p.Failed)
	}
	// A failed request misses the limit however fast it was.
	if p.Missed != 20 {
		t.Fatalf("missed %d, want the 20 failures", p.Missed)
	}
	if rungPasses(p, 90, 1000) {
		t.Fatal("20% failed passed the ladder rule")
	}
	mismatch := checkSim(it, nil)(200, []byte(`{"kernel":"CoMD"}`))
	if mismatch != "mismatch" {
		t.Fatalf("wrong kernel classified %q, want mismatch", mismatch)
	}
}

func TestParseMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("service.cache.hits").Add(7)
	reg.Counter("service.cache.misses").Add(3)
	reg.Gauge("service.cache.hit_ratio").Set(0.7)
	reg.Histogram("service.http.latency_ns", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	before, err := parseMetrics([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, "service.cache.hits"); got != 7 {
		t.Fatalf("hits delta %d, want 7", got)
	}
	if after.Counters["service.cache.misses"] != 3 || math.Abs(after.Gauges["service.cache.hit_ratio"]-0.7) > 1e-12 {
		t.Fatalf("snapshot %+v", after)
	}
	if _, err := parseMetrics([]byte(`not json`)); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestOracleMatchesService(t *testing.T) {
	// The in-process oracle must agree with the real handler on a sample
	// of the generated pool, or every run would report mismatches.
	pool, err := mixedPool(3)
	if err != nil {
		t.Fatal(err)
	}
	h, stop := inProcess()
	defer stop()
	for i := 0; i < 300; i++ {
		it := pool[i*len(pool)/300]
		rec := handlerCall(h, "POST", "/v1/simulate", it.body)
		if why := checkSim(it, nil)(rec.Code, rec.Body.Bytes()); why != "" {
			t.Fatalf("request %s: %s\n%s", it.body, why, rec.Body.String())
		}
	}
}
