package main

import (
	"strings"
	"testing"
)

func seq(from, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = from + step*float64(i)
	}
	return xs
}

func TestPairCountsIgnoreTies(t *testing.T) {
	base := []float64{1, 2, 3, 4}
	change := []float64{0.5, 2, 4, 3}
	if w, l := pairCounts(base, change, true); w != 2 || l != 1 {
		t.Errorf("lower-better: wins %d losses %d, want 2 and 1", w, l)
	}
	if w, l := pairCounts(base, change, false); w != 1 || l != 2 {
		t.Errorf("higher-better: wins %d losses %d, want 1 and 2", w, l)
	}
}

func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	bound := 0.2
	base := seq(100, 1, 10) // median 104.5, IQR 5.5
	// Nine clear wins and one tie: 9/10 wins.
	change := seq(80, 1, 10)
	change[9] = base[9]
	if v := judge(base, change, true, &bound); v != "improved" {
		t.Errorf("9 wins + 1 tie: %q, want improved", v)
	}
	// Eight wins and two ties: ties count for neither side.
	change[8] = base[8]
	if v := judge(base, change, true, &bound); v == "improved" {
		t.Errorf("8 wins + 2 ties judged improved")
	}
}

func TestJudgeNeedsMediansApartByParentSpread(t *testing.T) {
	bound := 0.2
	base := seq(100, 1, 10) // IQR 5.5
	change := seq(99, 1, 10)
	// Every pair is a win, but the medians differ by 1 < IQR.
	if v := judge(base, change, true, &bound); v == "improved" {
		t.Errorf("10/10 wins inside the parent spread judged improved")
	}
}

func TestJudgeRegressionAndUnresolved(t *testing.T) {
	bound := 0.1
	base := seq(100, 0.1, 10)
	worse := seq(120, 0.1, 10)
	if v := judge(base, worse, true, &bound); !strings.HasPrefix(v, "REGRESSION") {
		t.Errorf("20%% worse with bound 10%%: %q", v)
	}
	slightly := seq(105, 0.1, 10)
	if v := judge(base, slightly, true, &bound); v != "no regression (within bound)" {
		t.Errorf("5%% worse with bound 10%%: %q", v)
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v := judge(noisy, worse, true, &bound); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("parent spread wider than bound: %q", v)
	}
	if v := judge(base, worse[:9], true, &bound); !strings.HasPrefix(v, "too few pairs") {
		t.Errorf("nine pairs: %q", v)
	}
	// Without a bound (per-layer metrics) only clear moves are reported.
	if v := judge(base, worse, true, nil); v != "worse" {
		t.Errorf("unbounded clear loss: %q", v)
	}
}
