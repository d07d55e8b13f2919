package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client is the benchmark's own HTTP client: a transport sized to exactly
// conns keep-alive connections, with every new connection counted at dial.
// Bodies are always drained, so connections are reused rather than churned.
type client struct {
	base   string
	conns  int
	hc     *http.Client
	dialed atomic.Int64
}

func newClient(base string, conns int) *client {
	c := &client{base: base, conns: conns}
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dialed.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     5 * time.Minute,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the fully read body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// op is one open-loop request: a pre-encoded body and the check its
// response must pass. check returns "" for a correct response, otherwise
// the failure class (non-200, shed, degraded, mismatch, ...).
type op struct {
	body  []byte
	check func(status int, body []byte) string
}

// phase is the outcome of one fixed-rate open-loop phase. Latencies are in
// milliseconds, measured from the moment the generator released a request
// on its schedule (not from when a connection got to send it) to the end of
// its response body, so a stall also charges every request queued behind
// it. The release is the due time rounded up by the host's timer
// granularity (about 1 ms on Linux); GenLag records that rounding.
type phase struct {
	Rate     float64
	Due      int            // requests scheduled
	Sent     int            // requests put on the wire
	Failed   int            // sent requests that failed their check
	Dropped  int            // due but never sent before the phase was cut
	Reasons  map[string]int // failure class -> count
	Lat      []float64      // per sent request, ms from release
	At       []float64      // per sent request, release (closed loop: completion) time in s from the phase start
	OK       []bool         // closed loop: per request, whether it passed its check
	Missed   int            // sent requests over the limit or failed
	GenLag   []float64      // ms the generator handed each request over late
	Backlog  int            // requests due but not yet sent when the schedule ended
	Span     float64        // schedule length in s
	Duration time.Duration
}

// openLoop sends n = rate*dur requests at fixed spacing 1/rate over the
// client's connections. next(i) supplies the i-th request. After the
// schedule ends, requests still queued get drain to start; whatever is left
// then is dropped and counted as missing limitMs.
func (c *client) openLoop(rate float64, dur time.Duration, limitMs float64, drain time.Duration, next func(i int) op) phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	type item struct {
		released time.Time
		op       op
	}
	queue := make(chan item, n)
	res := phase{Rate: rate, Due: n, Span: float64(n) / rate, Reasons: map[string]int{}}
	var (
		mu   sync.Mutex
		cut  atomic.Bool
		wg   sync.WaitGroup
		lats = make([]float64, 0, n)
		ats  = make([]float64, 0, n)
	)
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				if cut.Load() {
					mu.Lock()
					res.Dropped++
					mu.Unlock()
					continue
				}
				status, body, err := c.do(context.Background(), http.MethodPost, "/v1/simulate", it.op.body)
				lat := ms(time.Since(it.released))
				reason := ""
				if err != nil {
					reason = "transport"
				} else {
					reason = it.op.check(status, body)
				}
				mu.Lock()
				res.Sent++
				lats = append(lats, lat)
				ats = append(ats, it.released.Sub(start).Seconds())
				if reason != "" {
					res.Failed++
					res.Reasons[reason]++
				}
				if reason != "" || lat > limitMs {
					res.Missed++
				}
				mu.Unlock()
			}
		}()
	}
	interval := float64(time.Second) / rate
	lag := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := next(i)
		now := time.Now()
		lag = append(lag, ms(now.Sub(due)))
		queue <- item{released: now, op: o}
	}
	res.Backlog = len(queue)
	close(queue)
	stop := time.AfterFunc(drain, func() { cut.Store(true) })
	wg.Wait()
	stop.Stop()
	res.Duration = time.Since(start)
	res.Lat = lats
	res.At = ats
	res.GenLag = lag
	res.Missed += res.Dropped
	return res
}

// closedLoop runs workers callers, each repeatedly taking the next index
// from a shared counter and calling fn until dur has passed since the
// start. Every caller makes at least one call, and a call in progress at
// the deadline completes. It returns how many calls were started.
func closedLoop(workers int, dur time.Duration, fn func(worker, i int)) int {
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				fn(w, int(next.Add(1)-1))
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return int(next.Load())
}
