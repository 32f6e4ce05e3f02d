package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one record of a Chrome trace_event document, the JSON
// format chrome://tracing and Perfetto load. Times are simulated cycles;
// ChromeTrace.Write converts them to microseconds.
type ChromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	// Ph is the phase: "B"/"E" open and close a slice, "X" is a complete
	// slice, "i" an instant, "s"/"t"/"f" a flow's start, step and finish.
	Ph string `json:"ph"`
	// At is when the event happens and Len how long an "X" slice lasts,
	// both in cycles of ChromeTrace.Hz.
	At  uint64 `json:"-"`
	Len uint64 `json:"-"`
	Pid int    `json:"pid"`
	Tid int    `json:"tid"`
	// Scope is an instant's extent ("t": its thread).
	Scope string `json:"s,omitempty"`
	// ID names the flow a flow event belongs to; BP "e" binds a flow's
	// finish to the slice that encloses it.
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is a trace_event document under construction. Producers
// append Events and name the processes and threads they place them on;
// only named tracks get process_name/thread_name metadata.
type ChromeTrace struct {
	// Hz is the clock that At and Len count; 0 means one cycle is one
	// microsecond.
	Hz     uint64
	Events []ChromeEvent
	// Other becomes the document's otherData; nil omits it.
	Other map[string]any
	names map[chromeTrack]string
}

type chromeTrack struct {
	thread   bool
	pid, tid int
}

// NameProcess labels pid in the viewer's left rail.
func (t *ChromeTrace) NameProcess(pid int, name string) {
	t.name(chromeTrack{pid: pid}, name)
}

// NameThread labels tid of pid in the viewer's left rail.
func (t *ChromeTrace) NameThread(pid, tid int, name string) {
	t.name(chromeTrack{thread: true, pid: pid, tid: tid}, name)
}

func (t *ChromeTrace) name(k chromeTrack, name string) {
	if t.names == nil {
		t.names = map[chromeTrack]string{}
	}
	t.names[k] = name
}

// Write encodes the document: the metadata first (processes by pid,
// then threads by pid and tid, so the output is deterministic), then
// the events in the order they were added.
func (t *ChromeTrace) Write(w io.Writer) error {
	hz := t.Hz
	if hz == 0 {
		hz = 1_000_000
	}
	us := func(cycles uint64) float64 { return float64(cycles) * 1e6 / float64(hz) }

	type record struct {
		ChromeEvent
		Ts  float64 `json:"ts"`
		Dur float64 `json:"dur,omitempty"`
	}
	out := make([]record, 0, len(t.names)+len(t.Events))
	tracks := make([]chromeTrack, 0, len(t.names))
	for k := range t.names {
		tracks = append(tracks, k)
	}
	sort.Slice(tracks, func(i, j int) bool {
		a, b := tracks[i], tracks[j]
		if a.thread != b.thread {
			return b.thread
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		return a.tid < b.tid
	})
	for _, k := range tracks {
		kind := "process_name"
		if k.thread {
			kind = "thread_name"
		}
		out = append(out, record{ChromeEvent: ChromeEvent{Name: kind, Ph: "M", Pid: k.pid, Tid: k.tid,
			Args: map[string]any{"name": t.names[k]}}})
	}
	for _, e := range t.Events {
		r := record{ChromeEvent: e, Ts: us(e.At)}
		if e.Ph == "X" {
			r.Dur = us(e.Len)
			if r.Dur == 0 {
				r.Dur = 0.01 // keeps a zero-length slice visible
			}
		}
		out = append(out, r)
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []record       `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{out, "ms", t.Other})
}

// RingTrace lays kernel trace events out as a Chrome trace: compartment
// calls and returns become nested B/E slices per thread, everything else
// an instant. The events may come from a ring that dropped its oldest
// entries: returns whose call is gone are skipped, and calls still open
// at the end are closed at the last event's time, so the slices always
// balance.
func RingTrace(events []Event, hz uint64) *ChromeTrace {
	t := &ChromeTrace{Hz: hz}
	t.NameProcess(1, "cheriot-sim")
	tids := map[string]int{}
	tid := func(thread string) int {
		if thread == "" {
			thread = "<kernel>"
		}
		id, ok := tids[thread]
		if !ok {
			id = len(tids) + 1
			tids[thread] = id
			t.NameThread(1, id, thread)
		}
		return id
	}
	depth := map[int]int{}
	var last uint64
	for _, e := range events {
		last = max(last, e.Cycle)
		ev := ChromeEvent{Name: e.To + "." + e.Entry, Cat: e.Kind.Layer(), At: e.Cycle, Pid: 1, Tid: tid(e.Thread)}
		switch e.Kind {
		case KindCall:
			ev.Ph, ev.Args = "B", map[string]any{"from": e.From}
			depth[ev.Tid]++
		case KindReturn, KindUnwind:
			if depth[ev.Tid] == 0 {
				continue // call fell off the wrapped ring
			}
			depth[ev.Tid]--
			ev.Ph, ev.Args = "E", map[string]any{"unwound": e.Kind == KindUnwind}
		default:
			ev.Name, ev.Ph, ev.Scope, ev.Args = e.Kind.String(), "i", "t", map[string]any{}
			if e.Detail != "" {
				ev.Name += " " + e.Detail
			}
			if e.To != "" {
				ev.Args["compartment"] = e.To
			}
			if e.Arg != 0 {
				ev.Args["arg"] = e.Arg
			}
		}
		t.Events = append(t.Events, ev)
	}
	for id := 1; id <= len(tids); id++ {
		for d := depth[id]; d > 0; d-- {
			t.Events = append(t.Events, ChromeEvent{Name: "(truncated)", Cat: "kernel", Ph: "E",
				At: last, Pid: 1, Tid: id})
		}
	}
	return t
}

// WriteChromeTrace exports the event ring as a Chrome trace (see
// RingTrace), with the ring's drop count in otherData.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: nil registry")
	}
	t := RingTrace(r.ring.Events(), r.hz)
	if d := r.ring.Dropped(); d > 0 {
		t.Other = map[string]any{"dropped_events": d}
	}
	return t.Write(w)
}
