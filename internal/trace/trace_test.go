package trace

import (
	"testing"

	"ena/internal/workload"
)

// mk builds a trace from line indices (each index is a distinct 64 B line).
func mk(lines ...uint64) []workload.Access {
	out := make([]workload.Access, len(lines))
	for i, l := range lines {
		out[i] = workload.Access{Addr: l * 64}
	}
	return out
}

func TestStackDistanceExact(t *testing.T) {
	// Classic example: A B C A -> A's reuse distance is 2 (B, C between).
	p := Analyze(mk(0, 1, 2, 0))
	want := []int{-1, -1, -1, 2}
	if len(p.distances) != len(want) {
		t.Fatalf("distances = %v", p.distances)
	}
	for i := range want {
		if p.distances[i] != want[i] {
			t.Fatalf("distances = %v, want %v", p.distances, want)
		}
	}

	// Repeated accesses to the same line have distance 0.
	p = Analyze(mk(5, 5, 5))
	if p.distances[1] != 0 || p.distances[2] != 0 {
		t.Errorf("same-line reuse distance should be 0: %v", p.distances)
	}

	// A B A B: each reuse skips exactly one distinct line.
	p = Analyze(mk(0, 1, 0, 1))
	if p.distances[2] != 1 || p.distances[3] != 1 {
		t.Errorf("interleaved distances = %v", p.distances)
	}
}

func TestStackDistanceDuplicatesNotDoubleCounted(t *testing.T) {
	// A B B A: only ONE distinct line (B) between A's uses.
	p := Analyze(mk(0, 1, 1, 0))
	if p.distances[3] != 1 {
		t.Errorf("distance = %d, want 1 (B counted once)", p.distances[3])
	}
}

func TestFootprintAndCold(t *testing.T) {
	p := Analyze(mk(0, 1, 2, 0, 1, 2))
	if p.DistinctLines != 3 {
		t.Errorf("DistinctLines = %d", p.DistinctLines)
	}
	if p.FootprintB != 3*64 {
		t.Errorf("FootprintB = %v", p.FootprintB)
	}
}

func TestWriteFrac(t *testing.T) {
	tr := mk(0, 1, 2, 3)
	tr[1].Write = true
	p := Analyze(tr)
	if p.WriteFrac != 0.25 {
		t.Errorf("WriteFrac = %v", p.WriteFrac)
	}
}

func TestEmptyTrace(t *testing.T) {
	p := Analyze(nil)
	if p.Accesses != 0 {
		t.Error("empty trace should yield zeros")
	}
}
