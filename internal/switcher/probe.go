package switcher

import (
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// probe is the kernel's one instrumentation point. The switcher is the
// only code that moves a thread between domains, so it is the only
// place where simulated time changes owner: at every transition the
// probe reads the clock once, charges the cycles since the previous
// transition to each current target — the compartment account, the
// thread account, and the profiler's current frame — then moves the
// targets and appends the transition to the trace ring and the flight
// recorder. The kernel's probe is nil while telemetry, the profiler,
// the trace ring and the flight recorder are all off, so each
// transition then costs one nil check. Between transitions the targets
// lag the clock; the kernel stamps when Run returns, on Shutdown, and
// before a subscriber attaches, so readers outside Run see exact totals.
// Subsystem events reach the same subscribers through events.go.
type probe struct {
	clock *hw.Clock
	last  uint64 // clock cycle of the last stamp

	comp, thread *telemetry.CycleAccount // current targets; nil is not charged

	tel             *telemetry.Registry
	sw, sched, idle *telemetry.CycleAccount
	calls, switches *telemetry.Counter
	traps, unwinds  *telemetry.Counter
	preempts        *telemetry.Counter
	ring            *telemetry.Ring
	rec             *flightrec.Recorder
	heapNode        uint32 // the recorder's provenance root for the heap
	prof            *prof.Profiler
	labels          map[*firmware.Export]string // "compartment.entry" profile frames
}

// stamp charges the cycles since the last stamp to every current target.
func (p *probe) stamp() {
	now := p.clock.Cycles()
	d := now - p.last
	p.last = now
	p.comp.Charge(d)
	p.thread.Charge(d)
	p.prof.Charge(d)
}

// system makes a pseudo-domain the current target and profile frame.
func (p *probe) system(a *telemetry.CycleAccount, domain string) {
	p.comp = a
	p.prof.System(domain)
}

// record appends a kernel event to the trace ring at the current cycle.
func (p *probe) record(ev telemetry.Event) {
	if p.ring == nil {
		return
	}
	ev.Cycle = p.clock.Cycles()
	p.ring.Record(ev)
}

// label resolves (and caches) a callee frame's profile label, so the
// profiled call path allocates no strings after warm-up.
func (p *probe) label(c *Comp, exp *firmware.Export) string {
	s, ok := p.labels[exp]
	if !ok {
		s = c.Name() + "." + exp.Name
		p.labels[exp] = s
	}
	return s
}

// attach returns the kernel's probe for a subscriber about to attach,
// creating it on first use and otherwise stamping, so the new
// subscriber starts from the current cycle. Creating the probe installs
// the revoker's sweep hook and the load filter's hook, once.
func (k *Kernel) attach() *probe {
	if k.probe == nil {
		k.probe = &probe{clock: k.Core.Clock, last: k.Core.Clock.Cycles(),
			labels: make(map[*firmware.Export]string)}
		k.Core.Revoker.SetSweepHook(k.onSweep)
		k.Core.Mem.SetLoadFilterHook(k.onLoadFiltered)
	} else {
		k.probe.stamp()
	}
	return k.probe
}

// stamp charges the cycles since the last transition, making every
// account and profile exact at the current cycle.
func (k *Kernel) stamp() {
	if k.probe != nil {
		k.probe.stamp()
	}
}

// off stands in for the probe of a kernel with nothing attached, so
// readers see nil subscribers. Nothing writes it.
var off probe

// subs returns the kernel's probe, or off when nothing is attached.
func (k *Kernel) subs() *probe {
	if k.probe == nil {
		return &off
	}
	return k.probe
}

// addThread gives a thread created after a subscriber attached its
// account and profile root.
func (p *probe) addThread(t *Thread) {
	t.acct = p.tel.ThreadAccount(t.Name)
	p.prof.RegisterThread(t.ID, t.Name)
}

// onCall is the call transition: the switcher's own work on the way in
// — the base call cost here and the entry-path stack zeroing after — is
// the "<switcher>" pseudo-domain's, on a "<switcher>" overlay frame on
// the caller's profile stack.
func (k *Kernel) onCall(t *Thread, caller, callee *Comp, entry string, posture firmware.Posture) {
	p := k.probe
	if p == nil {
		k.Core.Tick(hw.CallBaseCycles)
		return
	}
	p.stamp()
	p.comp = p.sw
	p.prof.Push(t.ID, telemetry.DomainSwitcher)
	k.Core.Tick(hw.CallBaseCycles)
	p.calls.Inc()
	from := ""
	if caller != nil {
		from = caller.Name()
	}
	p.record(telemetry.Event{Kind: telemetry.KindCall, Thread: t.Name, From: from, To: callee.Name(), Entry: entry})
	p.rec.Call(t.Name, from, callee.Name(), entry, recPosture(posture))
}

// recPosture maps a firmware interrupt posture to the flight recorder's
// wire codes.
func recPosture(p firmware.Posture) uint64 {
	switch p {
	case firmware.PostureDisabled:
		return flightrec.PostureDisabled
	case firmware.PostureEnabled:
		return flightrec.PostureEnabled
	default:
		return flightrec.PostureInherit
	}
}

// onEnter is the callee-entry transition: while the entry runs, its time
// is the callee's, on the callee's profile frame.
func (k *Kernel) onEnter(t *Thread, callee *Comp, exp *firmware.Export) {
	if p := k.probe; p != nil {
		p.stamp()
		p.comp = callee.acct
		if p.prof != nil {
			p.prof.Swap(t.ID, p.label(callee, exp))
		}
	}
}

// onExit is the callee-exit transition: the return-path zeroing is the
// switcher's again, on the overlay frame.
func (k *Kernel) onExit(t *Thread) {
	if p := k.probe; p != nil {
		p.stamp()
		p.comp = p.sw
		p.prof.Swap(t.ID, telemetry.DomainSwitcher)
	}
}

// onReturn is the return or unwind transition back into the caller,
// whose compartment is again on top of t's trusted stack (none for a
// thread's top-level call, whose time is the switcher's).
func (k *Kernel) onReturn(t *Thread, caller, callee *Comp, entry string, unwound bool) {
	p := k.probe
	if p == nil {
		return
	}
	p.stamp()
	p.toTop(t)
	p.prof.Pop(t.ID)
	if unwound {
		p.unwinds.Inc()
		p.record(telemetry.Event{Kind: telemetry.KindUnwind, Thread: t.Name, To: callee.Name()})
		p.rec.Unwind(t.Name, callee.Name())
		return
	}
	from := ""
	if caller != nil {
		from = caller.Name()
	}
	p.record(telemetry.Event{Kind: telemetry.KindReturn, Thread: t.Name, From: from, To: callee.Name(), Entry: entry})
	p.rec.Return(t.Name, from, callee.Name(), entry)
}

// toTop points the compartment target at the compartment on top of t's
// trusted stack, or at the switcher for a thread outside every
// compartment.
func (p *probe) toTop(t *Thread) {
	if c := t.currentComp(); c != nil && c.acct != nil {
		p.comp = c.acct
	} else {
		p.comp = p.sw
	}
}

// onTrap is the trap transition. The panic may have unwound past a
// nested transition that left the targets elsewhere, so fault handling
// — handler runs and the unwind cost — is charged to the faulting
// compartment, and the profile stack is truncated back to its frame
// (depth frames of trusted stack, plus the thread root).
func (k *Kernel) onTrap(t *Thread, callee *Comp, exp *firmware.Export, depth int, fault *hw.Trap) {
	p := k.probe
	if p == nil {
		return
	}
	p.stamp()
	p.comp = callee.acct
	p.prof.PopTo(t.ID, depth+1)
	p.traps.Inc()
	p.record(telemetry.Event{Kind: telemetry.KindTrap, Thread: t.Name, To: callee.Name(), Detail: fault.Code.String()})
	if fault.Code != hw.TrapForcedUnwind {
		// Snapshot the black box into a post-mortem report: the
		// forced-unwind case is the switcher evicting the thread, not a
		// capability fault, so it gets no report of its own.
		p.rec.Fault(t.Name, callee.Name(), exp.Name, fault.Addr,
			fault.Code.String(), fault.Detail, fault.Cap)
	}
}

// onDispatch is the dispatch transition: from here t's time is its own.
// A switch from another thread first pays the context restore — switcher
// work, charged to t — then t's top-of-stack compartment and profile
// frame become current.
func (k *Kernel) onDispatch(t *Thread, switched bool) {
	p := k.probe
	if p == nil {
		if switched {
			k.Core.Tick(hw.ContextRestoreCycles)
		}
		return
	}
	p.stamp()
	p.thread = t.acct
	if switched {
		k.Core.Tick(hw.ContextRestoreCycles)
		p.switches.Inc()
		p.record(telemetry.Event{Kind: telemetry.KindSwitch, Thread: t.Name})
		p.stamp()
	}
	p.toTop(t)
	p.prof.Activate(t.ID)
}

// onKernel is the transition back into the kernel loop when a thread
// yields: time is the switcher's again (and still the yielding
// thread's).
func (k *Kernel) onKernel() {
	if p := k.probe; p != nil {
		p.stamp()
		p.system(p.sw, telemetry.DomainSwitcher)
	}
}

// onDomain advances the clock to target as kernel-loop work of a
// pseudo-domain: "<sched>" for scheduler policy work (preempted counts a
// preemption), "<idle>" for a skip to the next device deadline with no
// runnable thread — idle time belongs to no thread. Time then returns
// to the switcher.
func (k *Kernel) onDomain(domain string, target uint64, preempted bool) {
	p := k.probe
	if p == nil {
		k.Core.SkipTo(target)
		return
	}
	if preempted {
		p.preempts.Inc()
	}
	p.stamp()
	prev, a := p.thread, p.sched
	if domain == telemetry.DomainIdle {
		p.thread, a = nil, p.idle
	}
	p.system(a, domain)
	k.Core.SkipTo(target)
	p.stamp()
	p.thread = prev
	p.system(p.sw, telemetry.DomainSwitcher)
}
