package iotapp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// ringSummary pins a trace ring without committing every event: the
// event count per kind, and a SHA-256 of the events' JSON.
type ringSummary struct {
	Events  int            `json:"events"`
	Dropped uint64         `json:"dropped"`
	Kinds   map[string]int `json:"kinds"`
	SHA256  string         `json:"sha256"`
}

func summarizeRing(t *testing.T, events []telemetry.Event, dropped uint64) ringSummary {
	t.Helper()
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	s := ringSummary{Events: len(events), Dropped: dropped, Kinds: map[string]int{},
		SHA256: hex.EncodeToString(sum[:])}
	for _, e := range events {
		s.Kinds[e.Kind.String()]++
	}
	return s
}

// checkGolden compares got against testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from testdata/%s:\n--- got ---\n%s", name, name, got)
	}
}

func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// pinArmed checks the three instrumented outputs of a run with
// telemetry, the trace ring and the flight recorder armed, under the
// file prefix, and returns the ring summary and the recorder's events.
func pinArmed(t *testing.T, prefix string, s *core.System) (ringSummary, []flightrec.Record) {
	t.Helper()
	var tel bytes.Buffer
	if err := s.Telemetry().WriteJSON(&tel); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, prefix+"_telemetry.json", tel.Bytes())
	d := s.FlightDump()
	var rec bytes.Buffer
	if err := d.WriteJSON(&rec); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, prefix+"_flightrec.json", rec.Bytes())
	ring := summarizeRing(t, s.Kernel.Trace(), s.Kernel.TraceDropped())
	checkGolden(t, prefix+"_ring.json", indentJSON(t, ring))
	if d.Dropped != 0 {
		t.Errorf("%s: flight recorder dropped %d events; the pin must hold every one", prefix, d.Dropped)
	}
	return ring, d.Events
}

// caseStudy runs the §5.3.3 case study with arm attaching instruments
// after boot.
func caseStudy(t *testing.T, arm func(*core.System)) *App {
	t.Helper()
	app, err := Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(app.Shutdown)
	arm(app.Sys)
	if _, err := app.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return app
}

// TestCaseStudyInstrumentedGolden pins, byte for byte, what the
// instruments report for the §5.3.3 case study and for the
// use-after-free demo: the telemetry snapshot, the flight-recorder
// dump, and the trace ring's per-kind counts and hash. A trace-only
// run (the kernel's ring without telemetry) is pinned too. Together the
// runs exercise every flight-recorder op and every trace kind except
// the generic marker, so a change to how any subsystem event reaches
// the instruments shows up here.
func TestCaseStudyInstrumentedGolden(t *testing.T) {
	armAll := func(s *core.System) {
		s.EnableTelemetry(1 << 16)
		s.EnableFlightRecorder(1 << 12)
	}
	app := caseStudy(t, armAll)
	ring, recs := pinArmed(t, "case_study", app.Sys)
	if ring.Dropped != 0 {
		t.Errorf("case study ring dropped %d events", ring.Dropped)
	}

	only := caseStudy(t, func(s *core.System) { s.Kernel.EnableTrace(1 << 16) })
	onlyRing := summarizeRing(t, only.Sys.Kernel.Trace(), only.Sys.Kernel.TraceDropped())
	checkGolden(t, "case_study_trace_only_ring.json", indentJSON(t, onlyRing))

	uaf, err := core.Boot(UseAfterFree())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(uaf.Shutdown)
	armAll(uaf)
	if err := uaf.Run(nil); err != nil {
		t.Fatal(err)
	}
	uafRing, uafRecs := pinArmed(t, "uaf", uaf)

	ops := map[flightrec.Op]bool{}
	for _, r := range append(recs, uafRecs...) {
		ops[r.Op] = true
	}
	for op := flightrec.OpNone + 1; op < flightrec.OpCount; op++ {
		if !ops[op] {
			t.Errorf("no pinned run records flight-recorder op %s", op)
		}
	}
	for k := telemetry.Kind(0); k < telemetry.KindCount; k++ {
		if k == telemetry.KindMark {
			continue
		}
		name := k.String()
		if ring.Kinds[name]+onlyRing.Kinds[name]+uafRing.Kinds[name] == 0 {
			t.Errorf("no pinned run records trace kind %s", name)
		}
	}
}
