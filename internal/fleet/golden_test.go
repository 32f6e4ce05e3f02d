package fleet

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestFleetInstrumentedSummaryGolden pins the full Summary — merged
// telemetry, profile and observability report included — of one
// lockstep run with every instrument armed (telemetry trace ring,
// profiler, flight recorder, fleetobs) and a staged rollout whose
// firmware swaps snapshot each retired incarnation's instruments
// mid-run. testdata/instrumented_summary.json was recorded from the
// per-instrument kernel hooks that preceded the shared kernel probe.
func TestFleetInstrumentedSummaryGolden(t *testing.T) {
	cfg := rolloutConfig(false, 24*time.Second)
	cfg.Obs = true
	cfg.Prof = true
	cfg.FlightRecorder = 256
	cfg.TraceCapacity = 128

	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	if s.Rollout == nil || s.Rollout.Updated == 0 || s.Profile == nil ||
		s.Obs == nil || s.Telemetry.AttributedCycles == 0 || !s.CycleSumExact {
		t.Fatalf("run lost coverage: rollout %+v, profile %v, obs %v",
			s.Rollout, s.Profile != nil, s.Obs != nil)
	}
	want, err := os.ReadFile("testdata/instrumented_summary.json")
	if err != nil {
		t.Fatal(err)
	}
	got := append(summaryJSON(t, s), '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("instrumented summary diverges from testdata/instrumented_summary.json:\n%s", got)
	}
}
