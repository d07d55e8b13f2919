package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one Chrome trace_event entry. Field names follow the Trace Event
// Format spec so the JSON loads directly in chrome://tracing and Perfetto.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects trace events in memory and serializes them as Chrome
// trace_event JSON. It is safe for concurrent use, and all methods are
// nil-safe no-ops so instrumented code can hold a nil tracer when tracing is
// off.
//
// Timestamps are explicit microseconds supplied by the caller, which lets
// simulators emit events on the *simulated* clock (NoC hops at simulated
// nanoseconds) and harnesses emit events on the wall clock (experiment
// spans) into separate pids of the same trace.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	t0     time.Time
}

// NewTracer returns an empty tracer; wall-clock spans are measured relative
// to this call.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

func (t *Tracer) add(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Complete records a complete ("X") event: a span [tsUS, tsUS+durUS) on the
// given pid/tid track.
func (t *Tracer) Complete(name, cat string, tsUS, durUS float64, pid, tid int, args map[string]any) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Ph: "X", TS: tsUS, Dur: durUS, PID: pid, TID: tid, Args: args})
}

// CounterEvent records a counter ("C") sample; values renders as a stacked
// area chart in the trace viewer.
func (t *Tracer) CounterEvent(name string, tsUS float64, pid int, values map[string]any) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Ph: "C", TS: tsUS, PID: pid, Args: values})
}

// WallUS returns microseconds elapsed since the tracer was created — the
// timestamp to use for wall-clock (as opposed to simulated-time) events.
func (t *Tracer) WallUS() float64 {
	if t == nil {
		return 0
	}
	return float64(time.Since(t.t0)) / float64(time.Microsecond)
}

// Span starts a wall-clock span and returns a func that ends it, emitting
// one complete event. Usage: defer tr.Span("fig7", "experiment", 0, 0)().
func (t *Tracer) Span(name, cat string, pid, tid int) func() {
	if t == nil {
		return func() {}
	}
	start := t.WallUS()
	return func() {
		t.Complete(name, cat, start, t.WallUS()-start, pid, tid, nil)
	}
}

// traceFile is the JSON Object Format wrapper of the Trace Event spec.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteJSON serializes the recorded events as a Chrome trace_event JSON
// object ({"traceEvents": [...]}), loadable by chrome://tracing, Perfetto,
// and speedscope.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var evs []Event
	if t != nil {
		t.mu.Lock()
		evs = append([]Event(nil), t.events...)
		t.mu.Unlock()
	}
	if evs == nil {
		evs = []Event{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
