package main

import "testing"

func TestFinalCountsTreatNothingAttemptedAsFailed(t *testing.T) {
	cases := []struct {
		attempted, failed uint64
		correct           bool
		a, f              uint64
		frac              float64
	}{
		{0, 0, true, 1, 1, 1},
		{0, 0, false, 1, 1, 1},
		{10, 0, false, 10, 10, 1},
		{10, 1, true, 10, 1, 0.1},
		{10, 0, true, 10, 0, 0},
	}
	for _, c := range cases {
		a, f, frac := finalCounts(c.attempted, c.failed, c.correct)
		if a != c.a || f != c.f || frac != c.frac {
			t.Errorf("finalCounts(%d, %d, %v) = %d, %d, %v; want %d, %d, %v",
				c.attempted, c.failed, c.correct, a, f, frac, c.a, c.f, c.frac)
		}
	}
}

func TestPaperErrors(t *testing.T) {
	rows := []paperRow{
		{paperRef{Paper: 200}, 210},                // 5%
		{paperRef{Paper: 10, Upper: true}, 6},      // meets its bound: 0%
		{paperRef{Paper: 10, Upper: true}, 12},     // 20% over
		{paperRef{Paper: 50, HeldOut: true}, 45},   // 10%
		{paperRef{Paper: 100, HeldOut: true}, 100}, // 0%
	}
	all, held := paperErrors(rows)
	if all != (5+0+20+10+0)/5.0 || held != 5 {
		t.Errorf("paperErrors = %v, %v; want 7, 5", all, held)
	}
}

// TestBenchmarkJSONIsRunnable checks that every workload BENCHMARK.json
// names has a definition here and every metric it names a description.
func TestBenchmarkJSONIsRunnable(t *testing.T) {
	bench, err := loadBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, w := range workloads {
		defined[w.name] = true
	}
	for _, w := range bench.Workloads {
		if !defined[w.Name] {
			t.Errorf("workload %q is in BENCHMARK.json but not defined", w.Name)
		}
	}
	named := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		named[m.Name] = true
		if metricDocs[m.Name] == "" {
			t.Errorf("metric %q is in BENCHMARK.json but has no description", m.Name)
		}
	}
	for name := range metricDocs {
		if !named[name] {
			t.Errorf("metric %q is described but not in BENCHMARK.json", name)
		}
	}
}

func TestTallyReportsOneRepetitionsCounts(t *testing.T) {
	tl := newTally()
	for i := 0; i < 3; i++ {
		tl.add(repResult{attempted: 100, failed: 2, digest: "d"}, true)
	}
	// A counterpart repetition is not compared and does not count.
	tl.add(repResult{attempted: 7, failed: 7, digest: "other"}, false)
	res := &result{Metrics: map[string]metricValue{}}
	tl.finish(res)
	if !res.Correct || res.Attempted != 100 || res.Failed != 2 {
		t.Errorf("correct=%v attempted=%d failed=%d; want true, 100, 2", res.Correct, res.Attempted, res.Failed)
	}

	tl = newTally()
	tl.add(repResult{attempted: 100, digest: "d"}, true)
	tl.add(repResult{attempted: 101, digest: "d"}, true)
	res = &result{Metrics: map[string]metricValue{}}
	tl.finish(res)
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("repetitions with different counts: correct=%v attempted=%d failed=%d; want a wholly failed run",
			res.Correct, res.Attempted, res.Failed)
	}
}
