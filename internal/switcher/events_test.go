package switcher_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// TestEveryKindRouted drives every event the kernel's probe fans out —
// compartment transitions, each Context observation, each Reporter
// event and a revocation sweep — with telemetry and the trace ring
// armed, and requires every trace kind but the generic marker to reach
// the ring. A kind added without a route in the probe fails here.
func TestEveryKindRouted(t *testing.T) {
	img := core.NewImage("routes")
	img.AddCompartment(&firmware.Compartment{
		Name: "obs", CodeSize: 64,
		Exports: []*firmware.Export{
			{Name: "all", MinStack: 64, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for o := api.ObserveNetTx; o <= api.ObserveReboot; o++ {
					ctx.Observe(o, api.W(8))
				}
				return nil
			}},
			{Name: "crash", MinStack: 64, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Fault(hw.TrapBoundsViolation, "deliberate")
				return nil
			}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "obs", Entry: "all"},
			{Kind: firmware.ImportCall, Target: "obs", Entry: "crash"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("obs", "all")
				_, _ = ctx.Call("obs", "crash")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	s := boot(t, img)
	s.EnableTelemetry(256)
	s.EnableFlightRecorder(256)
	run(t, s)

	k, th := s.Kernel, s.Kernel.Thread("t")
	r := k.Reporter("x")
	r.Malloc("x", 16)
	r.Allocated("x", "q", cap.Null())
	r.SweepWait()
	r.Free("x", 0, 16)
	r.Claim("x", 0)
	r.Quarantine(16)
	r.Quarantine(-16)
	r.FutexWait(th, "x", 0)
	r.Woke(th, 0)
	r.FutexWake("x", 0, 1)
	r.Sleep(th, "x", 100)
	rev := s.Board.Core.Revoker
	rev.Request()
	s.Board.Core.Tick(rev.SweepCycles() + 1)

	seen := map[telemetry.Kind]bool{}
	for _, ev := range k.Trace() {
		seen[ev.Kind] = true
	}
	for kind := telemetry.Kind(0); kind < telemetry.KindCount; kind++ {
		if kind != telemetry.KindMark && !seen[kind] {
			t.Errorf("trace kind %s has no route to the ring", kind)
		}
	}
}
