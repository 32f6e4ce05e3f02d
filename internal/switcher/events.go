package switcher

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// This file decides which instrument records what for every subsystem
// event. Each event is one call, costing one nil check while the probe
// is off; the probe then bumps the reporting compartment's telemetry
// metrics, appends the trace-ring event while telemetry is attached (a
// trace-only ring holds kernel transitions alone), and calls the flight
// recorder's typed method, all stamped at the cycle of the call.

// Reporter reports one compartment's subsystem events. Its telemetry
// handles are resolved on first use, so a metric no event touched stays
// out of the snapshot, and cleared when telemetry attaches.
type Reporter struct {
	k    *Kernel
	comp string

	mallocs, frees, sweepWaits, released, sweeps     *telemetry.Counter
	waits, wakes, sleeps, tx, rx, sends, recvs, pubs *telemetry.Counter
	sizes, txBytes, rxBytes                          *telemetry.Histogram
	quarantine                                       *telemetry.Gauge
}

// Reporter returns the named compartment's reporter, or a fresh one for
// a name with no compartment.
func (k *Kernel) Reporter(comp string) *Reporter {
	if c := k.comps[comp]; c != nil {
		return &c.ev
	}
	return &Reporter{k: k, comp: comp}
}

// inc bumps a counter, resolving its handle on first use.
func (r *Reporter) inc(h **telemetry.Counter, metric string) {
	if *h == nil {
		*h = r.k.probe.tel.Counter(r.comp, metric)
	}
	(*h).Inc()
}

// size observes a byte count, resolving the histogram on first use.
func (r *Reporter) size(h **telemetry.Histogram, metric string, n uint64) {
	if *h == nil {
		*h = r.k.probe.tel.Histogram(r.comp, metric, telemetry.DefaultSizeBuckets)
	}
	(*h).Observe(n)
}

// trace appends a subsystem event to the ring while telemetry is on.
func (p *probe) trace(ev telemetry.Event) {
	if p.tel != nil {
		p.record(ev)
	}
}

// Malloc reports size bytes reserved against owner's quota.
func (r *Reporter) Malloc(owner string, size uint32) {
	if p := r.k.probe; p != nil {
		r.inc(&r.mallocs, "mallocs")
		r.size(&r.sizes, "size_bytes", uint64(size))
		p.trace(telemetry.Event{Kind: telemetry.KindAlloc, From: owner, To: r.comp, Arg: uint64(size)})
	}
}

// Allocated reports the registered object capability owner got from
// quota, derived from the heap's provenance root.
func (r *Reporter) Allocated(owner, quota string, obj cap.Capability) {
	p := r.k.probe
	if p == nil || p.rec == nil {
		return
	}
	if p.heapNode == 0 {
		heap := r.k.heapRegion
		p.heapNode = p.rec.Root(r.comp, heap.Base, heap.Top(), "shared heap")
	}
	p.rec.Alloc(p.heapNode, owner, quota, obj.Base(), obj.Length(), obj.Sealed())
}

// SweepWait reports an allocation blocking on a revocation sweep.
func (r *Reporter) SweepWait() {
	if r.k.probe != nil {
		r.inc(&r.sweepWaits, "sweep_waits")
	}
}

// Free reports the final free of owner's size-byte object at base.
func (r *Reporter) Free(owner string, base, size uint32) {
	if p := r.k.probe; p != nil {
		r.inc(&r.frees, "frees")
		p.trace(telemetry.Event{Kind: telemetry.KindFree, From: owner, To: r.comp, Arg: uint64(size)})
		p.rec.Free(base, owner, r.k.Core.Revoker.Epoch())
	}
}

// Claim reports claimant claiming the object at base.
func (r *Reporter) Claim(claimant string, base uint32) {
	if p := r.k.probe; p != nil {
		p.rec.Claim(base, claimant)
	}
}

// Quarantine reports delta freed bytes entering quarantine, or -delta
// swept bytes leaving it.
func (r *Reporter) Quarantine(delta int64) {
	p := r.k.probe
	if p == nil {
		return
	}
	if r.quarantine == nil {
		r.quarantine = p.tel.Gauge(r.comp, "quarantine_bytes")
	}
	r.quarantine.Add(delta)
	if delta > 0 {
		p.trace(telemetry.Event{Kind: telemetry.KindQuarantine, To: r.comp, Arg: uint64(delta)})
	} else {
		r.inc(&r.released, "quarantine_released")
	}
}

// FutexWait reports t, called from caller, blocking on the word at addr.
func (r *Reporter) FutexWait(t *Thread, caller string, addr uint32) {
	if p := r.k.probe; p != nil {
		r.inc(&r.waits, "futex_waits")
		p.trace(telemetry.Event{Kind: telemetry.KindFutexWait, Thread: t.Name, From: caller, Arg: uint64(addr)})
		p.rec.FutexWait(t.Name, caller, addr)
	}
}

// Woke reports a futex_wake or an interrupt releasing t from addr.
func (r *Reporter) Woke(t *Thread, addr uint32) {
	if p := r.k.probe; p != nil {
		r.inc(&r.wakes, "futex_wakes")
		p.trace(telemetry.Event{Kind: telemetry.KindFutexWake, Thread: t.Name, Arg: uint64(addr)})
	}
}

// FutexWake reports caller's futex_wake on addr releasing woken waiters.
func (r *Reporter) FutexWake(caller string, addr uint32, woken int) {
	if p := r.k.probe; p != nil && woken > 0 {
		p.rec.FutexWake(caller, addr, woken)
	}
}

// Sleep reports t, called from caller, sleeping for cycles.
func (r *Reporter) Sleep(t *Thread, caller string, cycles uint64) {
	if p := r.k.probe; p != nil {
		r.inc(&r.sleeps, "sleeps")
		p.trace(telemetry.Event{Kind: telemetry.KindSleep, Thread: t.Name, From: caller, Arg: cycles})
	}
}

// onSweep is the revoker's hook; the allocator's telemetry counts sweeps.
func (k *Kernel) onSweep(start bool, epoch, granules uint64) {
	p := k.probe
	if start {
		p.trace(telemetry.Event{Kind: telemetry.KindRevokerStart, Arg: epoch})
		p.rec.SweepStart(epoch)
		return
	}
	r := k.Reporter(k.allocatorID)
	r.inc(&r.sweeps, "revoker_sweeps")
	p.trace(telemetry.Event{Kind: telemetry.KindRevokerDone, Arg: epoch})
	p.rec.SweepEnd(epoch, granules)
}

// onLoadFiltered is the load filter's hook: it untagged c, loaded by the
// running thread (only Context.LoadCap loads through the filter).
func (k *Kernel) onLoadFiltered(c cap.Capability) {
	k.probe.rec.LoadFiltered(k.lastRun.CurrentCompartment(), c)
}

// onStackAlloc reports buf carved from the stack of c's thread.
func (k *Kernel) onStackAlloc(c *ctx, buf cap.Capability) {
	p := k.probe
	if p == nil || p.rec == nil {
		return
	}
	if c.t.stackNode == 0 {
		c.t.stackNode = p.rec.Root(c.comp.Name(), c.t.stack.Base, c.t.stack.Top(), "stack "+c.t.Name)
	}
	p.rec.Derive(c.t.stackNode, c.comp.Name(), buf, "stack_alloc")
}

// Observe implements api.Context.
func (c *ctx) Observe(o api.Observation, v api.Value) {
	p := c.k.probe
	if p == nil {
		return
	}
	r, n := &c.comp.ev, uint64(v.AsWord())
	ev := telemetry.Event{To: r.comp, Arg: n}
	switch o {
	case api.ObserveNetTx:
		r.inc(&r.tx, "tx_segments")
		r.size(&r.txBytes, "tx_bytes", n)
		ev.Kind = telemetry.KindNetTx
	case api.ObserveNetRx:
		r.inc(&r.rx, "rx_frames")
		r.size(&r.rxBytes, "rx_bytes", n)
		ev.Kind = telemetry.KindNetRx
	case api.ObserveSend:
		r.inc(&r.sends, "sends")
		ev.Kind, ev.From = telemetry.KindSend, c.Caller()
	case api.ObserveRecv:
		r.inc(&r.recvs, "recvs")
		ev.Kind, ev.From = telemetry.KindRecv, c.Caller()
	case api.ObservePublish:
		r.inc(&r.pubs, "publishes")
		ev.Kind, ev.From, ev.Entry = telemetry.KindSend, c.Caller(), c.entry()
	case api.ObserveKeyNew:
		p.rec.Seal(r.comp, v.Cap, c.entry())
		return
	case api.ObserveUnseal:
		p.rec.Unseal(r.comp, c.Caller(), n == 1)
		return
	case api.ObserveReboot:
		p.rec.Reboot(r.comp, c.t.Name, int(n))
		return
	default:
		return
	}
	p.trace(ev)
}
