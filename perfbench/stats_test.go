package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		got, ok := quartiles(c.xs)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.xs)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

// ramp returns 1..n in descending order, so the tests also cover sorting.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		ok      bool
		pct, at float64
	}{
		{9, false, 0, 0},
		{39, false, 0, 0}, // p75 is the 30th value: only 9 beyond
		{40, true, 75, 30},
		{100, true, 90, 90}, // p95 would leave 5
		{199, true, 90, 180},
		{200, true, 95, 190},
		{1000, true, 99, 990},
		{10000, true, 99.9, 9990},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || pct != c.pct || v != c.at {
			t.Errorf("n=%d: got (p%v = %v, %v), want (p%v = %v, %v)", c.n, pct, v, ok, c.pct, c.at, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range ramp(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, pct)
			}
		}
	}
}
