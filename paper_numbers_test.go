package cheriot_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/cheriot-go/cheriot/internal/core"
)

// update rewrites the records this package keeps: the paper-number
// golden in testdata/ and the BENCH_*.json benchmark reports. Without it
// the tests only compare and gate; make bench-json runs the benchmark
// tests with it.
var update = flag.Bool("update", false, "rewrite testdata/paper_numbers.json and BENCH_*.json")

// recordBench writes a benchmark report to the named BENCH_*.json file
// under -update.
func recordBench(t *testing.T, name string, report any) {
	t.Helper()
	if !*update {
		return
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
}

// paperNumbers is every deterministic simulated number the
// reproduction reports against the paper.
type paperNumbers struct {
	Table2 table2      `json:"table2"`
	Table3 []table3Row `json:"table3"`
	Fig6a  struct {
		EmptyCall  float64 `json:"empty_call"`
		Stack256B  float64 `json:"stack_256B"`
		Stack1KiB  float64 `json:"stack_1KiB"`
		LibCall    float64 `json:"library_call"`
		IRQLatency float64 `json:"irq_latency"`
	} `json:"fig6a_cycles"`
	Fig6b []allocPoint `json:"fig6b"`
	Fig7  fig7         `json:"fig7"`
}

// allocPoint is one Fig. 6b size: simulated cycles per malloc/touch/free.
type allocPoint struct {
	Size           uint32  `json:"size"`
	CyclesPerAlloc float64 `json:"cycles_per_alloc"`
}

// measurePaperNumbers runs every paper measurement with arm attaching
// instruments to each booted system (nil: none).
func measurePaperNumbers(tb testing.TB, arm func(*core.System)) paperNumbers {
	const calls, irqs, reps = 64, 16, 16
	var p paperNumbers
	p.Table2 = table2Sizes(tb)
	p.Table3 = table3Rows(tb, reps, arm)
	p.Fig6a.EmptyCall = float64(callCycles(tb, 0, calls, arm)) / calls
	p.Fig6a.Stack256B = float64(callCycles(tb, 256, calls, arm)) / calls
	p.Fig6a.Stack1KiB = float64(callCycles(tb, 1024, calls, arm)) / calls
	p.Fig6a.LibCall = float64(libCallCycles(tb, calls, arm)) / calls
	p.Fig6a.IRQLatency = float64(irqCycles(tb, irqs, arm)) / irqs
	for _, size := range fig6bSizes {
		cycles, bytes := allocCycles(tb, size, arm)
		p.Fig6b = append(p.Fig6b, allocPoint{size, float64(cycles) / float64(bytes) * float64(size)})
	}
	p.Fig7 = fig7Numbers(tb, arm)
	return p
}

// TestPaperNumbersGolden pins the paper's Table 2/3, Fig. 6a/6b and
// Fig. 7 numbers exactly, so a cost-model change cannot pass tier-1 silently.
// Instruments never advance simulated time: the run with telemetry,
// the profiler, the flight recorder and the trace ring armed must
// report the same numbers. Regenerate the golden with -update.
func TestPaperNumbersGolden(t *testing.T) {
	path := filepath.Join("testdata", "paper_numbers.json")
	got, err := json.MarshalIndent(measurePaperNumbers(t, nil), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("paper numbers differ from %s (rerun with -update if the change is intended):\n%s", path, got)
	}

	armed, err := json.MarshalIndent(measurePaperNumbers(t, func(s *core.System) {
		s.EnableTelemetry(1024)
		s.EnableProfiler()
		s.EnableFlightRecorder(256)
	}), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if armed = append(armed, '\n'); !bytes.Equal(armed, want) {
		t.Errorf("instrumented paper numbers differ from %s:\n%s", path, armed)
	}
}
