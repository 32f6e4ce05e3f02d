package switcher

import "github.com/cheriot-go/cheriot/internal/telemetry"

// The kernel trace ring is now the telemetry layer's event ring
// (internal/telemetry); this file keeps the original switcher-level API as
// a thin shim. TraceKind and TraceEvent are aliases, so existing callers
// (tests, cmd/cheriot-iot) and new telemetry consumers see the same
// events.

// TraceKind classifies kernel trace events.
type TraceKind = telemetry.Kind

// Trace event kinds. The kernel kinds keep their original names; the
// telemetry package adds allocator, scheduler, and network kinds beyond
// these.
const (
	TraceSwitch = telemetry.KindSwitch // context switch to Thread
	TraceCall   = telemetry.KindCall   // compartment call From -> To.Entry
	TraceReturn = telemetry.KindReturn // return from To back into From
	TraceTrap   = telemetry.KindTrap   // trap in To (Detail = cause)
	TraceUnwind = telemetry.KindUnwind // forced or fault unwind out of To
)

// TraceEvent is one kernel event: the debug-utilities view of what the
// switcher did and when (simulated cycles).
type TraceEvent = telemetry.Event

// EnableTrace starts recording up to capacity kernel events in a ring
// buffer, resetting any previous ring (events and drop count start over);
// capacity <= 0 stops recording. Tracing is a debug utility: it costs
// nothing when disabled and never affects simulated time.
//
// If telemetry is enabled (EnableTelemetry) the kernel records into the
// registry's ring instead, alongside allocator/scheduler/netstack events;
// EnableTrace then re-points the registry's ring too, so both views stay
// one ring.
func (k *Kernel) EnableTrace(capacity int) {
	if capacity <= 0 && k.probe == nil {
		return
	}
	p := k.attach()
	p.ring = nil
	if capacity > 0 {
		p.ring = telemetry.NewRing(capacity)
	}
	if p.tel != nil {
		// Keep the registry's ring and the kernel's ring one object.
		p.tel.AttachRing(p.ring)
	}
}

// Trace returns the recorded events in chronological order. When the ring
// wrapped, this is the most recent window; TraceDropped reports how many
// older events were lost.
func (k *Kernel) Trace() []TraceEvent { return k.subs().ring.Events() }

// TraceDropped returns the number of events lost to ring wraparound since
// the last EnableTrace. Zero means Trace() is the complete record.
func (k *Kernel) TraceDropped() uint64 { return k.subs().ring.Dropped() }
