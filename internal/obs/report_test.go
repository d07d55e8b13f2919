package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestReportRenderAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dse.points_evaluated").Add(490)
	reg.Gauge("dse.points_per_sec").Set(267.35)
	h := reg.Histogram("noc.latency_ns", []float64{100, 1000})
	h.Observe(50)
	h.Observe(500)

	rep := NewReport("dse", reg, 1830*time.Millisecond)
	out := rep.Render()
	for _, want := range []string{
		"metrics report: dse",
		"wall 1.83s",
		"dse.points_evaluated",
		"490",
		"dse.points_per_sec",
		"noc.latency_ns",
		"n=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Rows are name-sorted.
	if strings.Index(out, "dse.points_evaluated") > strings.Index(out, "noc.latency_ns") {
		t.Error("rows not sorted by name")
	}

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "dse" || back.Metrics.Counters["dse.points_evaluated"] != 490 {
		t.Errorf("JSON round trip = %+v", back)
	}
}

func TestReportEmpty(t *testing.T) {
	rep := NewReport("empty", nil, 0)
	out := rep.Render()
	if !strings.Contains(out, "no metrics recorded") {
		t.Errorf("empty render = %q", out)
	}
}
