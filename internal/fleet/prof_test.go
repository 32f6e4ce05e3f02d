package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestFleetProfOffByteIdentical is the zero-cost contract at fleet
// scale: a profiled-off run is the default, and turning the profiler ON
// must not move a single simulated cycle — every device's clock and the
// whole deterministic summary (minus the profile itself) stay
// byte-identical.
func TestFleetProfOffByteIdentical(t *testing.T) {
	base := testConfig()
	base.Lockstep = true

	rBase, err := Run(base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	on := base
	on.Prof = true
	rOn, err := Run(on)
	if err != nil {
		t.Fatalf("profiled run: %v", err)
	}

	for i := range rBase.Devices {
		cb, cp := rBase.Devices[i].Sys.Cycles(), rOn.Devices[i].Sys.Cycles()
		if cb != cp {
			t.Errorf("device %d cycles changed with profiler on: %d vs %d", i, cb, cp)
		}
	}
	sb, sp := rBase.Summary, rOn.Summary
	if sp.Profile == nil {
		t.Fatal("profiled run has no Summary.Profile")
	}
	sp.Profile = nil
	j1, j2 := summaryJSON(t, sb), summaryJSON(t, sp)
	if !bytes.Equal(j1, j2) {
		t.Errorf("profiling changed the deterministic summary:\n--- off ---\n%s\n--- on ---\n%s", j1, j2)
	}
}

// TestFleetProfExactAndModeIndependent: per-frame cycles sum exactly to
// the merged telemetry clock delta, and lockstep vs parallel runs merge
// to byte-identical profiles.
func TestFleetProfExactAndModeIndependent(t *testing.T) {
	cfg := testConfig()
	cfg.Prof = true

	lock := cfg
	lock.Lockstep = true
	rLock, err := Run(lock)
	if err != nil {
		t.Fatalf("lockstep run: %v", err)
	}
	par := cfg
	par.Shards = 3
	rPar, err := Run(par)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	p := rLock.Summary.Profile
	if p == nil || len(p.Frames) == 0 {
		t.Fatal("no merged profile")
	}
	if !rLock.Summary.CycleSumExact {
		t.Error("CycleSumExact false on a healthy profiled run")
	}
	if p.SelfSum() != p.TotalCycles {
		t.Errorf("profile self sum %d != total %d", p.SelfSum(), p.TotalCycles)
	}
	// The profile total is the same clock delta telemetry attributes:
	// both were armed at the same instant on every device.
	if p.TotalCycles != rLock.Summary.Telemetry.AttributedCycles {
		t.Errorf("profile total %d != merged telemetry attributed %d",
			p.TotalCycles, rLock.Summary.Telemetry.AttributedCycles)
	}
	// The app's folded stacks surface the fleet workload.
	foundApp := false
	for _, f := range p.Frames {
		if len(f.Stack) >= 3 && f.Stack[:3] == "app" {
			foundApp = true
			break
		}
	}
	if !foundApp {
		t.Error("no app-thread frames in the merged profile")
	}

	j1, err := json.Marshal(rLock.Summary.Profile)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(rPar.Summary.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("lockstep and parallel profiles differ")
	}
}

// TestFleetHostProf: the host-phase split lands in the Result with the
// runner's real cost centers, and never touches the Summary.
func TestFleetHostProf(t *testing.T) {
	cfg := testConfig()
	cfg.HostProf = true

	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	hp := r.HostProf
	if hp == nil {
		t.Fatal("no HostProf in Result")
	}
	for _, phase := range []string{"boot", "step", "merge"} {
		p := hp.Phase(phase)
		if p.Name == "" || p.WallSec <= 0 {
			t.Errorf("phase %q missing or zero: %+v", phase, p)
		}
	}
	if hp.Phase("boot").Calls != uint64(cfg.Devices) {
		t.Errorf("boot calls = %d, want %d devices", hp.Phase("boot").Calls, cfg.Devices)
	}

	// Host profiling is wall-clock-only: the deterministic summary is
	// byte-identical to an uninstrumented run.
	base := testConfig()
	rBase, err := Run(base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	j1, j2 := summaryJSON(t, rBase.Summary), summaryJSON(t, r.Summary)
	if !bytes.Equal(j1, j2) {
		t.Error("host profiling changed the deterministic summary")
	}
}
