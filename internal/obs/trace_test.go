package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerWriteJSONIsValidChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.Complete("noc.request", "noc", 10, 5.5, 1, 2, map[string]any{"hops": 3})
	tr.CounterEvent("queue_depth", 30, 1, map[string]any{"pending": 42})
	done := tr.Span("experiment", "exp", 0, 0)
	done()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(f.TraceEvents))
	}
	phases := map[string]bool{}
	for _, e := range f.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Errorf("event %v missing %q", e, field)
			}
		}
		phases[e["ph"].(string)] = true
	}
	for _, ph := range []string{"X", "C"} {
		if !phases[ph] {
			t.Errorf("missing phase %q", ph)
		}
	}
	if e := f.TraceEvents[0]; e["dur"].(float64) != 5.5 || e["args"].(map[string]any)["hops"].(float64) != 3 {
		t.Errorf("complete event mangled: %v", e)
	}
}

func TestTracerEmptyStillValid(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("empty trace = %s", buf.String())
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Complete("a", "b", 0, 1, 0, 0, nil)
	tr.CounterEvent("a", 0, 0, nil)
	tr.Span("a", "b", 0, 0)()
	if tr.Len() != 0 || tr.WallUS() != 0 {
		t.Error("nil tracer must read zero")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("nil tracer must still write valid JSON")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Complete("e", "c", float64(i), 1, 0, w, nil)
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 8*500 {
		t.Fatalf("lost events: %d", tr.Len())
	}
}

func TestTracerSpanDuration(t *testing.T) {
	tr := NewTracer()
	done := tr.Span("s", "c", 0, 0)
	time.Sleep(2 * time.Millisecond)
	done()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.TraceEvents[0].Dur < 1000 { // at least 1 ms in microseconds
		t.Errorf("span duration = %v us", f.TraceEvents[0].Dur)
	}
}
