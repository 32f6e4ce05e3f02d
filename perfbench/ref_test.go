package main

import (
	"testing"
	"time"
)

func TestHostSpeedIsNominalOverMedianReference(t *testing.T) {
	ms := time.Millisecond
	around := []refTimes{
		{chase: refNominal, handoff: refNominal},
		{chase: refNominal / 2, handoff: refNominal / 2},
		{chase: 50 * ms, handoff: 50 * ms},
	}
	// Totals 2, 1 and 10 nominal: the median run took twice nominal, so
	// the host ran at half speed.
	if k := hostSpeed(around); k != 0.5 {
		t.Errorf("hostSpeed = %v, want 0.5", k)
	}
	if k := hostSpeed(nil); k != 1 {
		t.Errorf("hostSpeed of no reference runs = %v, want 1", k)
	}
}

func TestReferenceSampleRunsAtLeastMin(t *testing.T) {
	e := newRefEngine()
	got := e.sample(0, nil)
	if len(got) != refMin {
		t.Fatalf("sample(0) made %d runs, want %d", len(got), refMin)
	}
	for _, r := range got {
		if r.chase <= 0 || r.handoff <= 0 {
			t.Errorf("reference run timed %+v", r)
		}
	}
}
