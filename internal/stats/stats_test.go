package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if m, err := Min(xs); err != nil || m != -1 {
		t.Errorf("Min = %v, %v", m, err)
	}
	if m, err := Max(xs); err != nil || m != 7 {
		t.Errorf("Max = %v, %v", m, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if p, _ := Percentile(xs, 0); p != 10 {
		t.Errorf("p0 = %v", p)
	}
	if p, _ := Percentile(xs, 100); p != 50 {
		t.Errorf("p100 = %v", p)
	}
	if p, _ := Percentile(xs, 50); p != 30 {
		t.Errorf("p50 = %v", p)
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("expected range error")
	}
	// Percentile does not reorder the caller's slice.
	ys := []float64{3, 1, 2}
	if _, err := Percentile(ys, 50); err != nil {
		t.Fatal(err)
	}
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 9)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil || v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsMonotonicNonDecreasing(t *testing.T) {
	if !IsMonotonicNonDecreasing([]float64{1, 2, 2, 3}, 0) {
		t.Error("monotone sequence misclassified")
	}
	if IsMonotonicNonDecreasing([]float64{1, 0.5}, 0.1) {
		t.Error("decreasing sequence misclassified")
	}
	if !IsMonotonicNonDecreasing([]float64{1, 0.95}, 0.1) {
		t.Error("within-tolerance dip should pass")
	}
}
