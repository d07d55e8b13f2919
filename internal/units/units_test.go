package units

import (
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if GiB != 1<<30 {
		t.Errorf("GiB = %v", GiB)
	}
	if TB/GB != 1000 {
		t.Errorf("TB/GB = %v", TB/GB)
	}
	if GHz != 1000*MHz {
		t.Errorf("GHz = %v", GHz)
	}
	if EFLOPS/TFLOPS != 1e6 {
		t.Errorf("EFLOPS/TFLOPS = %v", EFLOPS/TFLOPS)
	}
	if CacheLineBytes != 64 {
		t.Errorf("CacheLineBytes = %d", CacheLineBytes)
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(2, 4, 0.5); got != 3 {
		t.Errorf("Lerp midpoint = %v", got)
	}
	if got := Lerp(2, 4, 0); got != 2 {
		t.Errorf("Lerp(..., 0) = %v", got)
	}
	if got := Lerp(2, 4, 1); got != 4 {
		t.Errorf("Lerp(..., 1) = %v", got)
	}
}

func TestMin3(t *testing.T) {
	f := func(a, b, c float64) bool {
		m := Min3(a, b, c)
		return m <= a && m <= b && m <= c && (m == a || m == b || m == c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
