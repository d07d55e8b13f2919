package stats

// Property-based tests: instead of fixed examples, these check algebraic
// laws (permutation invariance, scaling, translation) over randomized inputs
// and pin the package's explicit edge-case contract for empty and
// non-positive inputs.

import (
	"math"
	"math/rand"
	"testing"
)

const propTrials = 50

func randSlice(rng *rand.Rand, n int, positive bool) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		v := rng.NormFloat64() * 100
		if positive {
			v = math.Abs(v) + 1e-6
		}
		xs[i] = v
	}
	return xs
}

func shuffled(rng *rand.Rand, xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	return c
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(m, 1)
}

func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reductions := []struct {
		name string
		fn   func([]float64) float64
	}{
		{"Mean", Mean},
	}
	for trial := 0; trial < propTrials; trial++ {
		xs := randSlice(rng, 1+rng.Intn(64), true)
		perm := shuffled(rng, xs)
		for _, r := range reductions {
			a, b := r.fn(xs), r.fn(perm)
			if !relClose(a, b, 1e-9) {
				t.Fatalf("trial %d: %s not permutation-invariant: %v vs %v", trial, r.name, a, b)
			}
		}
		// Order statistics must be exactly invariant.
		amin, _ := Min(xs)
		bmin, _ := Min(perm)
		amax, _ := Max(xs)
		bmax, _ := Max(perm)
		if amin != bmin || amax != bmax {
			t.Fatalf("trial %d: Min/Max not permutation-invariant", trial)
		}
		p := float64(rng.Intn(101))
		ap, _ := Percentile(xs, p)
		bp, _ := Percentile(perm, p)
		if ap != bp {
			t.Fatalf("trial %d: Percentile(%v) not permutation-invariant: %v vs %v", trial, p, ap, bp)
		}
	}
}

func TestScalingLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < propTrials; trial++ {
		xs := randSlice(rng, 1+rng.Intn(64), true)
		c := math.Abs(rng.NormFloat64())*10 + 0.1
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = c * x
		}
		checks := []struct {
			name      string
			got, want float64
		}{
			{"Mean", Mean(scaled), c * Mean(xs)},
		}
		for _, ch := range checks {
			if !relClose(ch.got, ch.want, 1e-9) {
				t.Fatalf("trial %d: %s(c*x) = %v, want c*%s(x) = %v", trial, ch.name, ch.got, ch.name, ch.want)
			}
		}
	}
}

func TestTranslationLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < propTrials; trial++ {
		xs := randSlice(rng, 1+rng.Intn(64), false)
		d := rng.NormFloat64() * 50
		moved := make([]float64, len(xs))
		for i, x := range xs {
			moved[i] = x + d
		}
		if !relClose(Mean(moved), Mean(xs)+d, 1e-9) {
			t.Fatalf("trial %d: Mean not translation-equivariant", trial)
		}
	}
}

func TestMeanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < propTrials; trial++ {
		xs := randSlice(rng, 1+rng.Intn(64), true)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		m := Mean(xs)
		const eps = 1e-9
		if m < lo*(1-eps) || m > hi*(1+eps) {
			t.Fatalf("trial %d: mean = %v outside [%v, %v]", trial, m, lo, hi)
		}
	}
}

func TestEmptyInputContract(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
}

func TestNonPositiveInputContract(t *testing.T) {
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("Percentile(101) must error")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("Percentile(-1) must error")
	}
}

func TestPercentileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < propTrials; trial++ {
		xs := randSlice(rng, 2+rng.Intn(64), false)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		p0, _ := Percentile(xs, 0)
		p100, _ := Percentile(xs, 100)
		if p0 != lo || p100 != hi {
			t.Fatalf("trial %d: P0/P100 = %v/%v, want %v/%v", trial, p0, p100, lo, hi)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev {
				t.Fatalf("trial %d: percentile not monotonic at p=%v", trial, p)
			}
			prev = v
		}
	}
}
