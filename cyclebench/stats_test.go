package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailP90NeedsTenBeyond(t *testing.T) {
	// 100 samples: p90 is the 90th value with 10 above it.
	v, q := tail(seq(100), 0.90)
	if v != 90 || q != 0.90 {
		t.Fatalf("n=100: got %g at q=%g, want 90 at 0.90", v, q)
	}
	// 99 samples: p90 would leave only 9 above; the highest quantile
	// with 10 above is rank 89.
	v, q = tail(seq(99), 0.90)
	if v != 89 || math.Abs(q-89.0/99) > 1e-12 {
		t.Fatalf("n=99: got %g at q=%g, want 89 at %g", v, q, 89.0/99)
	}
	// 40 samples: rank 30 (p75) is the highest with 10 above.
	v, q = tail(seq(40), 0.90)
	if v != 30 || q != 0.75 {
		t.Fatalf("n=40: got %g at q=%g, want 30 at 0.75", v, q)
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	for _, n := range []int{1, 5, 12, 19} {
		xs := seq(n)
		v, q := tail(xs, 0.90)
		if q != 0.5 || v != median(xs) {
			t.Fatalf("n=%d: got %g at q=%g, want the median %g", n, v, q, median(xs))
		}
	}
	if v, _ := tail(nil, 0.9); !math.IsNaN(v) {
		t.Fatalf("no samples: got %g, want NaN", v)
	}
}

func TestMedianMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %g", m)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Fatalf("mean = %g", m)
	}
}
