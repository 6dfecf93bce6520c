package main

import (
	"math"
	"testing"
)

func TestKSTwoSampleHandWorked(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		// Disjoint samples: the CDFs differ by 1 between them.
		{[]float64{1, 2, 3}, []float64{4, 5}, 1},
		// Identical samples, ties included.
		{[]float64{1, 1, 2}, []float64{2, 1, 1}, 0},
		// F_a(2)=2/4, F_b(2)=0 -> 0.5; at 3: 3/4 vs 1/2 -> 0.25.
		{[]float64{1, 2, 3, 4}, []float64{3, 5}, 0.5},
		// Binary samples: the gap is the difference of zero shares.
		{[]float64{0, 0, 0, 1}, []float64{0, 1, 1, 1}, 0.5},
	}
	for _, c := range cases {
		if got := ksTwoSample(c.a, c.b); !closeTo(got, c.want, 1e-15) {
			t.Errorf("ks(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPSICategoricalHandWorked(t *testing.T) {
	// Shares (0.5, 0.5) vs (0.75, 0.25):
	// (0.5-0.75) ln(0.5/0.75) + (0.5-0.25) ln(0.5/0.25) = 0.25 ln 3.
	got := psiCategorical([]string{"A", "B"}, []string{"A", "A", "A", "B"})
	if want := 0.25 * math.Log(3); !closeTo(got, want, 1e-15) {
		t.Errorf("psi = %v, want %v", got, want)
	}
	if got := psiCategorical([]string{"x", "y"}, []string{"y", "x"}); got != 0 {
		t.Errorf("psi of equal shares = %v, want 0", got)
	}
	// A level missing on one side uses the 1e-4 floor:
	// (1-0.5) ln(1/0.5) + (1e-4-0.5) ln(1e-4/0.5).
	got = psiCategorical([]string{"A"}, []string{"A", "B"})
	want := 0.5*math.Log(2) + (1e-4-0.5)*math.Log(1e-4/0.5)
	if !closeTo(got, want, 1e-14) {
		t.Errorf("psi with missing level = %v, want %v", got, want)
	}
}

func TestWilsonHandWorked(t *testing.T) {
	// 8 of 10: centre (0.8 + 1.92/10)/(1.384146) = 0.716686,
	// half 0.24 + ... -> [0.4902, 0.9433] (textbook values).
	lo, hi := wilson95(8, 10)
	if math.Abs(lo-0.4901625) > 1e-6 || math.Abs(hi-0.9433178) > 1e-6 {
		t.Errorf("wilson(8,10) = [%v, %v]", lo, hi)
	}
	lo, hi = wilson95(0, 20)
	if lo != 0 || math.Abs(hi-0.1611252) > 1e-6 {
		t.Errorf("wilson(0,20) = [%v, %v]", lo, hi)
	}
	lo, hi = wilson95(20, 20)
	if hi != 1 || math.Abs(lo-0.8388748) > 1e-6 {
		t.Errorf("wilson(20,20) = [%v, %v]", lo, hi)
	}
}

func TestRandomizedResponseOracle(t *testing.T) {
	if got, want := rrKeep(1), math.E/(1+math.E); !closeTo(got, want, 1e-15) {
		t.Errorf("keep(1) = %v, want %v", got, want)
	}
	if got := rrKeep(0); got != 0.5 {
		t.Errorf("keep(0) = %v, want 0.5", got)
	}
	// n = 10000, p = 0.5: sd = 0.005, so z = 2 gives [0.49, 0.51].
	lo, hi := binomialBand(10000, 0.5, 2)
	if !closeTo(lo, 0.49, 1e-12) || !closeTo(hi, 0.51, 1e-12) {
		t.Errorf("band = [%v, %v]", lo, hi)
	}
}
