package event

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.After(3, func() { got = append(got, 3) })
	s.After(1, func() { got = append(got, 1) })
	s.After(2, func() { got = append(got, 2) })
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v", got)
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v", s.Now())
	}
	if s.Processed() != 3 {
		t.Errorf("processed = %d", s.Processed())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := NewSim()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5, func() { got = append(got, i) })
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("ties must run in scheduling order: %v", got)
		}
	}
}

func TestPastEvent(t *testing.T) {
	s := NewSim()
	s.After(10, func() {
		if _, err := s.At(5, func() {}); err != ErrPastEvent {
			t.Errorf("expected ErrPastEvent, got %v", err)
		}
	})
	s.Run(0)
}

func TestNonFinite(t *testing.T) {
	s := NewSim()
	if _, err := s.At(nan(), func() {}); err == nil {
		t.Error("NaN timestamp must be rejected")
	}
}

func nan() float64 { return float64(0) / func() float64 { return 0 }() }

func TestCancel(t *testing.T) {
	s := NewSim()
	ran := false
	tk := s.After(1, func() { ran = true })
	tk.Cancel()
	n := s.Run(0)
	if ran {
		t.Error("cancelled event ran")
	}
	if n != 0 {
		t.Errorf("cancelled events must not count as executed: %d", n)
	}
	tk.Cancel() // double cancel is a no-op
}

func TestEventsScheduleEvents(t *testing.T) {
	s := NewSim()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(1, recurse)
		}
	}
	s.After(0, recurse)
	s.Run(0)
	if depth != 5 {
		t.Errorf("depth = %d", depth)
	}
	if s.Now() != 4 {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestRunMaxEvents(t *testing.T) {
	s := NewSim()
	for i := 0; i < 10; i++ {
		s.After(float64(i), func() {})
	}
	if n := s.Run(4); n != 4 {
		t.Errorf("Run(4) executed %d", n)
	}
	if s.Pending() != 6 {
		t.Errorf("pending = %d", s.Pending())
	}
}

// Property: regardless of insertion order, events execute in nondecreasing
// timestamp order and the clock never goes backwards.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var times []float64
		var executed []float64
		for i := 0; i < 50; i++ {
			at := rng.Float64() * 100
			times = append(times, at)
			at2 := at
			if _, err := s.At(at2, func() { executed = append(executed, at2) }); err != nil {
				return false
			}
		}
		s.Run(0)
		if len(executed) != len(times) {
			return false
		}
		sort.Float64s(times)
		for i := range times {
			if executed[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRunContextCancels(t *testing.T) {
	s := NewSim()
	ctx, cancel := context.WithCancel(context.Background())
	// A self-perpetuating event stream: without cancellation this would
	// run forever (bounded here by maxEvents as a test safety net).
	var fired int
	var loop func()
	loop = func() {
		fired++
		if fired == 10 {
			cancel()
		}
		s.After(1, loop)
	}
	s.After(0, loop)
	n, err := s.RunContext(ctx, 1_000_000)
	if err == nil {
		t.Fatal("RunContext returned nil error after cancellation")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The stride is ctxCheckEvery, so the overrun past the cancel point is
	// bounded by one stride.
	if n > 10+ctxCheckEvery {
		t.Errorf("executed %d events after cancel at 10; overrun exceeds one stride", n)
	}
	// The queue stays consistent: the pending rescheduled event survives.
	if s.Pending() == 0 {
		t.Error("pending event dropped by cancelled drain")
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	build := func() *Sim {
		s := NewSim()
		for i := 0; i < 100; i++ {
			at := float64(i % 10)
			s.After(at, func() {})
		}
		return s
	}
	a, b := build(), build()
	na := a.Run(0)
	nb, err := b.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || a.Now() != b.Now() {
		t.Errorf("Run=(%d,%v) RunContext=(%d,%v)", na, a.Now(), nb, b.Now())
	}
}

func TestRunContextMaxEvents(t *testing.T) {
	s := NewSim()
	for i := 0; i < 50; i++ {
		s.After(float64(i), func() {})
	}
	n, err := s.RunContext(context.Background(), 7)
	if err != nil || n != 7 {
		t.Fatalf("RunContext(7) = %d, %v", n, err)
	}
	if s.Pending() != 43 {
		t.Errorf("pending = %d, want 43", s.Pending())
	}
}
