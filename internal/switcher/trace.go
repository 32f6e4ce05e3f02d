package switcher

import "github.com/cheriot-go/cheriot/internal/telemetry"

// EnableTrace starts recording up to capacity kernel events in a ring
// buffer, resetting any previous ring (events and drop count start over);
// capacity <= 0 stops recording. Tracing is a debug utility: it costs
// nothing when disabled and never affects simulated time.
//
// The kernel's probe is the ring's only writer. Without telemetry the
// ring holds kernel transitions only; with telemetry attached
// (EnableTelemetry) it also holds the allocator, scheduler, revoker and
// network events, and the registry reads the same ring.
func (k *Kernel) EnableTrace(capacity int) {
	if capacity <= 0 && k.probe == nil {
		return
	}
	p := k.attach()
	p.ring = nil
	if capacity > 0 {
		p.ring = telemetry.NewRing(capacity)
	}
	p.tel.AttachRing(p.ring) // the registry reads the same ring
}

// Trace returns the recorded events in chronological order. When the ring
// wrapped, this is the most recent window; TraceDropped reports how many
// older events were lost.
func (k *Kernel) Trace() []telemetry.Event { return k.subs().ring.Events() }

// TraceDropped returns the number of events lost to ring wraparound since
// the last EnableTrace. Zero means Trace() is the complete record.
func (k *Kernel) TraceDropped() uint64 { return k.subs().ring.Dropped() }
