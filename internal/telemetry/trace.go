package telemetry

import "fmt"

// Kind classifies trace events: the first five are kernel transitions,
// the rest subsystem events of the allocator, scheduler, and network.
type Kind uint8

// Trace event kinds.
const (
	KindSwitch Kind = iota // context switch to Thread
	KindCall               // compartment call From -> To.Entry
	KindReturn             // return from To back into From
	KindTrap               // trap in To (Detail = cause)
	KindUnwind             // forced or fault unwind out of To

	KindFutexWait    // thread waits on a futex word (Arg = address)
	KindFutexWake    // a futex wake releases a waiter (Arg = address)
	KindSleep        // thread sleeps (Arg = cycles)
	KindAlloc        // heap allocation (To = owner, Arg = bytes)
	KindFree         // heap free (To = owner, Arg = bytes)
	KindQuarantine   // freed range enters quarantine (Arg = bytes)
	KindRevokerStart // background revocation sweep begins (Arg = epoch)
	KindRevokerDone  // background revocation sweep completes (Arg = epoch)
	KindNetRx        // network stack accepts a frame (Arg = bytes)
	KindNetTx        // network stack transmits a frame (Arg = bytes)
	KindSend         // application-level send (socket / MQTT publish)
	KindRecv         // application-level receive delivered to a caller
	KindMark         // generic instant marker (Detail = label)

	// KindCount is the number of kinds; the exhaustiveness tests iterate
	// up to it so an added kind without a String/Layer entry fails CI.
	KindCount
)

// String renders the kind for log output. Every kind must have a
// non-"?" rendering; TestKindStringsExhaustive enforces it.
func (k Kind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	case KindTrap:
		return "trap"
	case KindUnwind:
		return "unwind"
	case KindFutexWait:
		return "futex-wait"
	case KindFutexWake:
		return "futex-wake"
	case KindSleep:
		return "sleep"
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	case KindQuarantine:
		return "quarantine"
	case KindRevokerStart:
		return "revoker-start"
	case KindRevokerDone:
		return "revoker-done"
	case KindNetRx:
		return "net-rx"
	case KindNetTx:
		return "net-tx"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindMark:
		return "mark"
	default:
		return "?"
	}
}

// Layer buckets kinds into the subsystem that emits them; the Chrome
// exporter uses it as the event category.
func (k Kind) Layer() string {
	switch k {
	case KindSwitch, KindCall, KindReturn, KindTrap, KindUnwind:
		return "kernel"
	case KindFutexWait, KindFutexWake, KindSleep:
		return "sched"
	case KindAlloc, KindFree, KindQuarantine, KindRevokerStart, KindRevokerDone:
		return "alloc"
	case KindNetRx, KindNetTx, KindSend, KindRecv:
		return "net"
	case KindMark:
		return "app"
	default:
		return "?"
	}
}

// Event is one trace record: what happened, when (simulated cycles), and
// in whose context. Field use varies by kind; unused fields stay zero.
type Event struct {
	Cycle  uint64
	Kind   Kind
	Thread string
	From   string
	To     string
	Entry  string
	Detail string
	// Arg carries the kind-specific scalar: bytes for alloc/free and
	// network events, the futex word address for futex events, the epoch
	// for revoker events.
	Arg uint64
}

// String renders the event for log output.
func (e Event) String() string {
	switch e.Kind {
	case KindSwitch:
		return fmt.Sprintf("%10d  switch  -> %s", e.Cycle, e.Thread)
	case KindCall:
		return fmt.Sprintf("%10d  call    [%s] %s -> %s.%s", e.Cycle, e.Thread, e.From, e.To, e.Entry)
	case KindReturn:
		return fmt.Sprintf("%10d  return  [%s] %s.%s -> %s", e.Cycle, e.Thread, e.To, e.Entry, e.From)
	case KindTrap:
		return fmt.Sprintf("%10d  trap    [%s] in %s: %s", e.Cycle, e.Thread, e.To, e.Detail)
	case KindUnwind:
		return fmt.Sprintf("%10d  unwind  [%s] out of %s", e.Cycle, e.Thread, e.To)
	case KindAlloc, KindFree, KindQuarantine:
		return fmt.Sprintf("%10d  %-7s [%s] %s: %d B", e.Cycle, e.Kind, e.Thread, e.To, e.Arg)
	case KindRevokerStart, KindRevokerDone:
		return fmt.Sprintf("%10d  %s epoch %d", e.Cycle, e.Kind, e.Arg)
	case KindNetRx, KindNetTx, KindSend, KindRecv:
		return fmt.Sprintf("%10d  %-7s [%s] %s %s: %d B", e.Cycle, e.Kind, e.Thread, e.To, e.Detail, e.Arg)
	case KindFutexWait, KindFutexWake:
		return fmt.Sprintf("%10d  %s [%s] word 0x%x", e.Cycle, e.Kind, e.Thread, e.Arg)
	case KindSleep:
		return fmt.Sprintf("%10d  sleep   [%s] %d cycles", e.Cycle, e.Thread, e.Arg)
	case KindMark:
		return fmt.Sprintf("%10d  mark    [%s] %s", e.Cycle, e.Thread, e.Detail)
	default:
		return fmt.Sprintf("%10d  ?", e.Cycle)
	}
}

// Ring is a fixed-capacity event ring. When full, new events overwrite the
// oldest and the drop counter records how many were lost — readers can
// tell a complete trace from a truncated one.
type Ring struct {
	buf     []Event
	next    int
	full    bool
	dropped uint64
}

// NewRing returns a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		return nil
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full. Nil-safe.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.full = true
	r.dropped++
}

// Events returns the recorded events in chronological order.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.full {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped returns how many events were overwritten because the ring
// wrapped. Zero means Events() is the complete record.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}
