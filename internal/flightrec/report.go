package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/cheriot-go/cheriot/internal/cap"
)

// Report is one structured post-mortem: a capability fault snapshot with
// the offending capability's field dump, its provenance chain walked
// backwards to the root, the matched heap allocation (live or freed),
// and the tail of the event ring at fault time.
type Report struct {
	Device      string `json:"device,omitempty"`
	Seq         uint64 `json:"seq"`
	Cycle       uint64 `json:"cycle"`
	Thread      string `json:"thread,omitempty"`
	Compartment string `json:"compartment"`
	Entry       string `json:"entry,omitempty"`
	// PC is the faulting address reported by the trap.
	PC     uint32 `json:"pc"`
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
	// Cap is the offending capability's field dump (nil when the trap
	// carried no capability).
	Cap *cap.Fields `json:"cap,omitempty"`
	// Chain is the provenance walk, newest node first.
	Chain []Node `json:"chain,omitempty"`
	// Allocation is the heap allocation the offending capability points
	// into, when one matches.
	Allocation *AllocRecord `json:"allocation,omitempty"`
	// Summary is the one-line forensic verdict.
	Summary string `json:"summary"`
	// Tail holds the most recent ring events at fault time.
	Tail []Record `json:"tail,omitempty"`
	// Reboot marks reports whose compartment was force-rebooted after
	// the fault.
	Reboot bool `json:"reboot,omitempty"`
}

// Fault snapshots the recorder state into a Report. c is the offending
// capability (zero-value if the trap carried none).
func (r *Recorder) Fault(thread, comp, entry string, pc uint32, code, detail string, c cap.Capability) {
	if r == nil {
		return
	}
	r.Emit(Record{Op: OpTrap, Thread: thread, Comp: comp, Detail: code, Arg: uint64(pc)})
	r.reportsTotal++
	rep := Report{
		Device:      r.device,
		Seq:         r.reportsTotal,
		Cycle:       r.stamp(),
		Thread:      thread,
		Compartment: comp,
		Entry:       entry,
		PC:          pc,
		Code:        code,
		Detail:      detail,
	}
	hasCap := c != (cap.Capability{})
	if hasCap {
		f := c.Fields()
		rep.Cap = &f
		rep.Chain, rep.Allocation = r.Provenance(c)
	}
	rep.Summary = r.summarize(&rep, hasCap)
	events := r.Events()
	if len(events) > tailEvents {
		events = events[len(events)-tailEvents:]
	}
	rep.Tail = events
	if len(r.reports) < maxReports {
		r.reports = append(r.reports, rep)
	} else {
		copy(r.reports, r.reports[1:])
		r.reports[len(r.reports)-1] = rep
	}
}

// summarize builds the forensic verdict sentence.
func (r *Recorder) summarize(rep *Report, hasCap bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s in compartment %q", rep.Code, rep.Compartment)
	if rep.Entry != "" {
		fmt.Fprintf(&b, " (entry %q)", rep.Entry)
	}
	fmt.Fprintf(&b, " at pc=0x%08x", rep.PC)
	if !hasCap {
		return b.String()
	}
	a := rep.Allocation
	if a == nil {
		if len(rep.Chain) > 0 {
			n := rep.Chain[len(rep.Chain)-1]
			fmt.Fprintf(&b, "; capability derives from %q region [0x%08x,0x%08x)",
				n.Comp, n.Base, n.Top)
		}
		return b.String()
	}
	if a.Live() {
		fmt.Fprintf(&b, "; capability points into live allocation #%d (%d bytes at 0x%08x) owned by compartment %q",
			a.Seq, a.Size, a.Base, a.Owner)
		return b.String()
	}
	fmt.Fprintf(&b, "; dangling capability into allocation #%d (%d bytes at 0x%08x) allocated by compartment %q, freed by %q at cycle %d",
		a.Seq, a.Size, a.Base, a.Owner, a.FreedBy, a.FreeCycle)
	if a.SweepEpoch != 0 {
		fmt.Fprintf(&b, ", invalidated by revocation sweep epoch %d", a.SweepEpoch)
	} else {
		fmt.Fprintf(&b, ", awaiting revocation sweep (freed at epoch %d)", a.FreeEpoch)
	}
	return b.String()
}

// Reports returns the retained post-mortem reports, oldest first.
func (r *Recorder) Reports() []Report {
	if r == nil {
		return nil
	}
	return append([]Report(nil), r.reports...)
}

// ReportsTotal returns how many faults were reported, including ones
// whose reports were evicted by the bound.
func (r *Recorder) ReportsTotal() uint64 {
	if r == nil {
		return 0
	}
	return r.reportsTotal
}

// Dump is the serialized recorder state written for cheriot-inspect.
type Dump struct {
	Device   string        `json:"device,omitempty"`
	Hz       uint64        `json:"hz,omitempty"`
	Capacity int           `json:"capacity"`
	Dropped  uint64        `json:"dropped_events"`
	Events   []Record      `json:"events"`
	Nodes    []Node        `json:"nodes,omitempty"`
	Live     []AllocRecord `json:"live_allocations,omitempty"`
	Freed    []AllocRecord `json:"freed_allocations,omitempty"`
	Reports  []Report      `json:"reports,omitempty"`
}

// Snapshot captures the full recorder state. hz is the simulated clock
// rate recorded for time conversion in the CLI (0 if unknown).
func (r *Recorder) Snapshot(hz uint64) Dump {
	if r == nil {
		return Dump{}
	}
	nodes := r.Nodes()
	if len(nodes) == 1 { // only the reserved null node
		nodes = nil
	}
	return Dump{
		Device:   r.device,
		Hz:       hz,
		Capacity: r.capacity,
		Dropped:  r.dropped,
		Events:   r.Events(),
		Nodes:    nodes,
		Live:     r.LiveAllocations(),
		Freed:    r.FreedAllocations(),
		Reports:  r.Reports(),
	}
}

// WriteJSON serializes the dump.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadDump parses a dump previously written with WriteJSON.
func ReadDump(rd io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(rd).Decode(&d); err != nil {
		return nil, fmt.Errorf("flightrec: parse dump: %w", err)
	}
	return &d, nil
}

// Histogram counts events per (compartment, op). Compartment "" groups
// under "(kernel)".
func (d *Dump) Histogram() map[string]map[string]int {
	out := make(map[string]map[string]int)
	for _, ev := range d.Events {
		comp := ev.Comp
		if comp == "" {
			comp = "(kernel)"
		}
		m := out[comp]
		if m == nil {
			m = make(map[string]int)
			out[comp] = m
		}
		m[ev.Op.String()]++
	}
	return out
}

// WriteHistogram renders the per-compartment event histogram.
func (d *Dump) WriteHistogram(w io.Writer) {
	hist := d.Histogram()
	comps := make([]string, 0, len(hist))
	for c := range hist {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		total := 0
		ops := make([]string, 0, len(hist[c]))
		for op, n := range hist[c] {
			ops = append(ops, op)
			total += n
		}
		sort.Strings(ops)
		fmt.Fprintf(w, "%-14s %6d events\n", c, total)
		for _, op := range ops {
			fmt.Fprintf(w, "  %-14s %6d\n", op, hist[c][op])
		}
	}
}

// FormatRecord renders one record for timeline output.
func FormatRecord(ev Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12d  %-13s", ev.Cycle, ev.Op.String())
	switch ev.Op {
	case OpCall:
		fmt.Fprintf(&b, " %s: %s -> %s.%s [%s]",
			ev.Thread, ev.From, ev.Comp, ev.Entry, PostureString(ev.Arg))
	case OpReturn:
		fmt.Fprintf(&b, " %s: %s.%s -> %s", ev.Thread, ev.Comp, ev.Entry, ev.From)
	case OpUnwind:
		fmt.Fprintf(&b, " %s: unwound out of %s", ev.Thread, ev.Comp)
	case OpTrap:
		fmt.Fprintf(&b, " %s: %s in %s at 0x%08x", ev.Thread, ev.Detail, ev.Comp, uint32(ev.Arg))
	case OpAlloc:
		fmt.Fprintf(&b, " %s: %d bytes at 0x%08x (quota %q, node %d)",
			ev.Comp, ev.Arg, uint32(ev.Arg2), ev.Detail, ev.Node)
	case OpFree:
		fmt.Fprintf(&b, " %s frees %d bytes at 0x%08x (owner %s)",
			ev.From, ev.Arg, uint32(ev.Arg2), ev.Comp)
	case OpClaim:
		fmt.Fprintf(&b, " %s claims 0x%08x (%d bytes)", ev.Comp, uint32(ev.Arg2), ev.Arg)
	case OpSweepStart:
		fmt.Fprintf(&b, " epoch %d", ev.Arg)
	case OpSweepEnd:
		fmt.Fprintf(&b, " epoch %d (%d granules)", ev.Arg, ev.Arg2)
	case OpFutexWait:
		fmt.Fprintf(&b, " %s (%s) on 0x%08x", ev.Thread, ev.From, uint32(ev.Arg))
	case OpFutexWake:
		fmt.Fprintf(&b, " %s wakes %d on 0x%08x", ev.Comp, ev.Arg2, uint32(ev.Arg))
	case OpLoadFiltered:
		fmt.Fprintf(&b, " %s loaded revoked cap base=0x%08x addr=0x%08x",
			ev.Comp, uint32(ev.Arg), uint32(ev.Arg2))
	case OpDerive:
		fmt.Fprintf(&b, " %s node %d <- %d (%s)", ev.Comp, ev.Node, ev.Parent, ev.Detail)
	case OpSeal:
		fmt.Fprintf(&b, " %s seals 0x%08x (%s)", ev.Comp, uint32(ev.Arg), ev.Detail)
	case OpUnseal:
		ok := "denied"
		if ev.Arg == 1 {
			ok = "ok"
		}
		fmt.Fprintf(&b, " %s for %s: %s", ev.Comp, ev.From, ok)
	case OpReboot:
		fmt.Fprintf(&b, " %s micro-reboot #%d", ev.Comp, ev.Arg)
	default:
		if ev.Comp != "" {
			fmt.Fprintf(&b, " %s", ev.Comp)
		}
	}
	return b.String()
}

// WriteReport pretty-prints one post-mortem report.
func WriteReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "=== crash report #%d", rep.Seq)
	if rep.Device != "" {
		fmt.Fprintf(w, " (device %s)", rep.Device)
	}
	fmt.Fprintf(w, " ===\n")
	fmt.Fprintf(w, "  %s\n", rep.Summary)
	fmt.Fprintf(w, "  cycle=%d thread=%s", rep.Cycle, rep.Thread)
	if rep.Reboot {
		fmt.Fprintf(w, " [escalated to micro-reboot]")
	}
	fmt.Fprintln(w)
	if rep.Cap != nil {
		fmt.Fprintf(w, "  offending capability: %s\n", rep.Cap)
	}
	if len(rep.Chain) > 0 {
		fmt.Fprintf(w, "  provenance (newest first):\n")
		for _, n := range rep.Chain {
			fmt.Fprintf(w, "    node %-4d %-8s %-12s [0x%08x,0x%08x) %s\n",
				n.ID, n.Op.String(), n.Comp, n.Base, n.Top, n.Note)
		}
	}
	if a := rep.Allocation; a != nil && !a.Live() {
		fmt.Fprintf(w, "  allocation #%d: %d bytes, owner=%s quota=%s, freed by %s at cycle %d",
			a.Seq, a.Size, a.Owner, a.Quota, a.FreedBy, a.FreeCycle)
		if a.SweepEpoch != 0 {
			fmt.Fprintf(w, ", swept at epoch %d", a.SweepEpoch)
		}
		fmt.Fprintln(w)
	}
	if len(rep.Tail) > 0 {
		fmt.Fprintf(w, "  last %d events:\n", len(rep.Tail))
		for _, ev := range rep.Tail {
			fmt.Fprintf(w, "  %s\n", FormatRecord(ev))
		}
	}
}
