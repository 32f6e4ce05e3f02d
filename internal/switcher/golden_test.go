package switcher_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

// goldenImage exercises every switcher transition the instruments
// observe: nested calls with a library call, a handler retry, a fault
// unwind with no handler, a forced unwind (micro-reboot eviction),
// preemption between two equal-priority threads, and an idle skip.
func goldenImage(kernel **switcher.Kernel) *firmware.Image {
	img := core.NewImage("golden")
	img.AddLibrary(&firmware.Library{
		Name: "mathlib", CodeSize: 64,
		Funcs: []*firmware.Export{{Name: "sq", Entry: func(ctx api.Context, args []api.Value) []api.Value {
			ctx.Work(50)
			return args
		}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "leaf", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "op", MinStack: 32,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(500)
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "leaf", Entry: "op"},
			{Kind: firmware.ImportLib, Target: "mathlib", Entry: "sq"},
		},
		Exports: []*firmware.Export{{Name: "work", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(1000)
				ctx.LibCall("mathlib", "sq", api.W(3))
				_, _ = ctx.Call("leaf", "op")
				ctx.Work(200)
				return api.EV(api.OK)
			}}},
	})
	attempts := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "flaky", CodeSize: 128, DataSize: 0,
		ErrorHandler: func(ctx api.Context, tr *hw.Trap) api.HandlerDecision {
			ctx.Work(40)
			return api.HandlerRetry
		},
		Exports: []*firmware.Export{{Name: "work", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				attempts++
				ctx.Work(300)
				if attempts == 1 {
					ctx.Fault(hw.TrapIllegalInstruction, "transient")
				}
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "crashy", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "bad", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(250)
				ctx.Fault(hw.TrapBoundsViolation, "deliberate")
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "spinner", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{
			{Name: "forever", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					for {
						ctx.Work(1000) // faults once evicted
					}
				}},
			{Name: "some", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					for i := 0; i < 30; i++ {
						ctx.Work(1000)
					}
					return nil
				}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: append(sched.Imports(),
			firmware.Import{Kind: firmware.ImportCall, Target: "svc", Entry: "work"},
			firmware.Import{Kind: firmware.ImportCall, Target: "flaky", Entry: "work"},
			firmware.Import{Kind: firmware.ImportCall, Target: "crashy", Entry: "bad"}),
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("svc", "work")
				_, _ = ctx.Call("flaky", "work")
				_, _ = ctx.Call("crashy", "bad")
				// Let the two spinners share the core, then evict the
				// endless one and sleep past both: the core idles.
				_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(100_000))
				_ = (*kernel).BeginReset("spinner", 0)
				_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(50_000))
				_ = (*kernel).FinishReset("spinner")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "main", Compartment: "main", Entry: "main",
		Priority: 2, StackSize: 4096, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "victim", Compartment: "spinner", Entry: "forever",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "noise", Compartment: "spinner", Entry: "some",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	return img
}

// runGolden boots the golden image, lets arm attach instruments, and
// runs it to completion.
func runGolden(t *testing.T, arm func(s *core.System)) *core.System {
	t.Helper()
	var k *switcher.Kernel
	s := boot(t, goldenImage(&k))
	k = s.Kernel
	s.Sched.SetQuantum(5000)
	arm(s)
	run(t, s)
	if s.Kernel.Stats().ContextSwitches < 4 || s.Kernel.IdleCycles() == 0 {
		t.Fatalf("golden run lost coverage: %+v, idle %d", s.Kernel.Stats(), s.Kernel.IdleCycles())
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

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSubscriberOutputsGolden pins what the four kernel instruments —
// telemetry accounts and counters, the profiler, the trace ring, and
// the flight recorder — report for one run, byte for byte against
// outputs recorded from the per-instrument hooks the kernel had before
// they shared one probe. A second, trace-only run pins the kernel's own
// ring without telemetry.
func TestSubscriberOutputsGolden(t *testing.T) {
	s := runGolden(t, func(s *core.System) {
		s.EnableTelemetry(4096)
		s.EnableProfiler()
		s.EnableFlightRecorder(512)
	})
	var tel bytes.Buffer
	if err := s.Telemetry().WriteJSON(&tel); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_telemetry.json", tel.Bytes())
	var pr bytes.Buffer
	if err := s.Profiler().Snapshot().WriteJSON(&pr); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_profile.json", pr.Bytes())
	checkGolden(t, "golden_trace.json", mustJSON(t, s.Kernel.Trace()))
	checkGolden(t, "golden_flightrec.json", mustJSON(t, s.FlightDump()))

	only := runGolden(t, func(s *core.System) { s.Kernel.EnableTrace(4096) })
	checkGolden(t, "golden_trace_only.json", mustJSON(t, only.Kernel.Trace()))
}
