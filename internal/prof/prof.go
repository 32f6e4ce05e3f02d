// Package prof is the cycle-exact compartment profiler. The switcher's
// probe moves its current frame at every domain transition and charges
// it the cycles since the previous transition — the same stamp the
// telemetry accounts are charged from — so every simulated cycle lands
// in exactly one cross-compartment stack frame, and the frame
// self-cycles sum to the clock delta since the profiler was armed. A
// second, host-side view (HostProfile) times the fleet runner's real
// wall-clock cost centers — device boot, the step loop, result merging —
// per worker.
//
// Everything here is deterministic: a Profile is a pure function of the
// simulated execution, so lockstep and parallel fleet runs merge to
// byte-identical profiles for the same config+seed. Every Profiler
// method is nil-safe and allocation-free on the nil receiver, so
// instrumented hot paths pay only a nil check when profiling is off.
package prof

import "github.com/cheriot-go/cheriot/internal/telemetry"

// Root-level pseudo-domain frames for cycles spent outside any
// compartment carry the telemetry account names, so a profile and a
// telemetry snapshot of the same run name them alike.
const (
	DomainSwitcher = telemetry.DomainSwitcher
	DomainSched    = telemetry.DomainSched
	DomainIdle     = telemetry.DomainIdle
)

// node is one frame in the profile trie. The root is unnamed and holds
// no cycles; its children are threads and system pseudo-domains.
type node struct {
	label    string
	parent   *node
	children map[string]*node
	// c0/c1 are the two most-recently-used children: the switcher's call
	// choreography alternates between the overlay frame and the callee
	// frame under one parent, so this tiny cache absorbs most lookups.
	// Labels are interned by the caller, making == a cheap compare.
	c0, c1 *node
	self   uint64 // cycles attributed while this node was current
	calls  uint64 // times this frame was entered
}

func (n *node) child(label string) *node {
	if c := n.c0; c != nil && c.label == label {
		return c
	}
	if c := n.c1; c != nil && c.label == label {
		n.c0, n.c1 = c, n.c0
		return c
	}
	c := n.children[label]
	if c == nil {
		c = &node{label: label, parent: n}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		n.children[label] = c
	}
	n.c0, n.c1 = c, n.c0
	return c
}

// threadState is one thread's live call stack. stack[0] is the thread's
// own root node (labelled with the thread name); compartment frames pile
// on top of it.
type threadState struct {
	stack []*node
}

// Profiler reconstructs and accumulates the call-stack profile of one
// simulated machine. It never reads a clock: the switcher's probe moves
// the current frame at every transition (Push/Swap/Pop/PopTo on
// compartment transitions from the thread goroutine, Activate/System on
// dispatch transitions from the kernel goroutine) and charges the cycles
// between two transitions with Charge. The two goroutines alternate
// strictly via the kernel's channel handoff, so no locking is needed —
// the same single-writer discipline the telemetry accounts rely on.
type Profiler struct {
	hz    uint64
	base  uint64
	total uint64

	root    node
	cur     *node          // frame Charge adds to; nil attributes nowhere
	threads []*threadState // indexed by thread ID (IDs are small and dense)
}

// New arms a profiler whose first charged cycle follows clock cycle
// base. Point the current frame somewhere (System or Activate) before
// the first Charge or those cycles attribute nowhere.
func New(hz, base uint64) *Profiler {
	return &Profiler{hz: hz, base: base}
}

// thread returns the thread's state, nil when out of range or
// unregistered.
func (p *Profiler) thread(tid int) *threadState {
	if tid < 0 || tid >= len(p.threads) {
		return nil
	}
	return p.threads[tid]
}

// Charge attributes n cycles to the current frame: the probe calls it
// with the cycles elapsed since the previous transition, so every cycle
// lands in exactly one node. Nil-safe.
func (p *Profiler) Charge(n uint64) {
	if p == nil {
		return
	}
	p.total += n
	if p.cur != nil {
		p.cur.self += n
	}
}

// RegisterThread creates the thread's root frame. Idempotent; nil-safe.
func (p *Profiler) RegisterThread(id int, name string) {
	if p == nil || id < 0 {
		return
	}
	for id >= len(p.threads) {
		p.threads = append(p.threads, nil)
	}
	if p.threads[id] == nil {
		p.threads[id] = &threadState{stack: []*node{p.root.child(name)}}
	}
}

// Push enters a frame on the thread's stack and makes it current: the
// switcher calls it on compartment entry (and for its own transition
// overlay). Unregistered threads are ignored. Nil-safe, allocation-free
// on nil.
func (p *Profiler) Push(tid int, label string) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil {
		return
	}
	n := ts.stack[len(ts.stack)-1].child(label)
	n.calls++
	ts.stack = append(ts.stack, n)
	p.cur = n
}

// Swap replaces the thread's top frame with a sibling — Pop followed by
// Push fused into one transition. The switcher uses it at call
// boundaries where its overlay frame hands off directly to the callee
// frame (and back) with no cycles in between. The thread root is never
// swapped out. Nil-safe.
func (p *Profiler) Swap(tid int, label string) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil {
		return
	}
	if len(ts.stack) <= 1 {
		p.Push(tid, label)
		return
	}
	n := ts.stack[len(ts.stack)-2].child(label)
	n.calls++
	ts.stack[len(ts.stack)-1] = n
	p.cur = n
}

// Pop leaves the thread's top frame, making its parent current. The
// thread root is never popped. Nil-safe.
func (p *Profiler) Pop(tid int) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil || len(ts.stack) <= 1 {
		return
	}
	ts.stack = ts.stack[:len(ts.stack)-1]
	p.cur = ts.stack[len(ts.stack)-1]
}

// PopTo truncates the thread's stack back to depth (the thread root
// counts as 1) and makes the new top current: the unwind repair
// primitive. A trap panic can escape a nested compartment call from the
// middle of the switcher's transition sequence (e.g. stack zeroing
// faulting), leaving stray frames; the enclosing error path restores
// the depth of its own frame. A depth at or past the current one is a
// no-op. Nil-safe.
func (p *Profiler) PopTo(tid int, depth int) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil || depth < 1 || len(ts.stack) <= depth {
		return
	}
	ts.stack = ts.stack[:depth]
	p.cur = ts.stack[len(ts.stack)-1]
}

// Activate makes the thread's top frame current: the kernel calls it
// when dispatching the thread. Nil-safe.
func (p *Profiler) Activate(tid int) {
	if p == nil {
		return
	}
	if ts := p.thread(tid); ts != nil {
		p.cur = ts.stack[len(ts.stack)-1]
	}
}

// System makes a root-level pseudo-domain frame current (the switcher
// passes telemetry's "<switcher>", "<sched>" and "<idle>" domain names):
// cycles spent outside any thread's compartment stack. Nil-safe.
func (p *Profiler) System(label string) {
	if p == nil {
		return
	}
	p.cur = p.root.child(label)
}
