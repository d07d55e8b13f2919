package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report aggregates one run's metrics into a renderable summary. Build it
// with NewReport once the instrumented work has finished; the snapshot is
// frozen at that point.
type Report struct {
	Name        string   `json:"name"`
	WallSeconds float64  `json:"wall_seconds"`
	Metrics     Snapshot `json:"metrics"`
}

// NewReport snapshots the registry into a named report. wall is the run's
// wall-clock duration (zero is rendered as unknown).
func NewReport(name string, reg *Registry, wall time.Duration) *Report {
	return &Report{Name: name, WallSeconds: wall.Seconds(), Metrics: reg.Snapshot()}
}

// Render formats the report as aligned, name-sorted text for terminals:
//
//	== metrics report: dse (wall 1.83s) ==
//	counter  dse.points_evaluated          490
//	gauge    dse.points_per_sec         267.35
//	hist     noc.latency_ns      n=200000 mean=412.1 p50<=512 p99<=2048 max=3307.0
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== metrics report: %s", r.Name)
	if r.WallSeconds > 0 {
		fmt.Fprintf(&b, " (wall %.2fs)", r.WallSeconds)
	}
	b.WriteString(" ==\n")

	type row struct{ kind, name, val string }
	var rows []row
	for n, v := range r.Metrics.Counters {
		rows = append(rows, row{"counter", n, fmt.Sprintf("%d", v)})
	}
	for n, v := range r.Metrics.Gauges {
		rows = append(rows, row{"gauge", n, fmt.Sprintf("%.4g", v)})
	}
	for n, h := range r.Metrics.Histograms {
		rows = append(rows, row{"hist", n, fmt.Sprintf(
			"n=%d mean=%.4g p50<=%.4g p99<=%.4g max=%.4g",
			h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max)})
	}
	if len(rows) == 0 {
		b.WriteString("(no metrics recorded)\n")
		return b.String()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	nameW := 0
	for _, r := range rows {
		if len(r.name) > nameW {
			nameW = len(r.name)
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-*s  %s\n", r.kind, nameW, r.name, r.val)
	}
	return b.String()
}
