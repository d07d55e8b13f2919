package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one enaserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer
	done chan error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startServer execs bin with args plus a free -addr and waits until
// /healthz answers 200. It returns the time from exec to that answer.
func startServer(bin string, args ...string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://" + addr, done: make(chan error, 1)}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	// The child dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(30 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, time.Since(t0), nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("enaserve exited during start: %v\n%s", err, s.log.String())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("enaserve did not answer /healthz within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the child if it has
// not exited within 20 s. It always waits for the process to end.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		err := <-s.done
		s.done <- err
	}
}

// peakRSSMB is the child's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() float64 { return vmHWMMB(s.cmd.Process.Pid) }

// vmHWMMB reads a process's peak resident set size from /proc in MiB, or
// NaN when it cannot be read.
func vmHWMMB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return nan()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return nan()
}

// metricsSnapshot is the part of GET /metrics the benchmark reads.
type metricsSnapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// parseMetrics decodes a /metrics body.
func parseMetrics(body []byte) (metricsSnapshot, error) {
	var m metricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("metrics: %w", err)
	}
	if m.Counters == nil {
		m.Counters = map[string]int64{}
	}
	if m.Gauges == nil {
		m.Gauges = map[string]float64{}
	}
	return m, nil
}

// scrape fetches and parses the server's /metrics.
func (c *client) scrape() (metricsSnapshot, error) {
	status, body, err := c.do(context.Background(), http.MethodGet, "/metrics", nil)
	if err != nil {
		return metricsSnapshot{}, err
	}
	if status != http.StatusOK {
		return metricsSnapshot{}, fmt.Errorf("metrics: status %d", status)
	}
	return parseMetrics(body)
}

// delta is the counter's increase between two snapshots.
func delta(before, after metricsSnapshot, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}
