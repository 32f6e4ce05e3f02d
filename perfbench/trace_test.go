package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		// Two parallel workers overlap on [30, 50]; the union is [10, 70].
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 70},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120},
		// A grandchild is its own parent's business, not span 1's.
		{ID: 5, Parent: 2, StartNs: 20, EndNs: 30},
		// A child nested inside a sibling's interval adds nothing.
		{ID: 6, Parent: 1, StartNs: 40, EndNs: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 60 - 10, 2: 40 - 10, 3: 40, 4: 30, 5: 10, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestOpTableAggregatesByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Layer: "sched", StartNs: 0, EndNs: 100, Ops: 1},
		{ID: 2, Parent: 1, Name: "switcher.call/empty", Layer: "switcher", StartNs: 0, EndNs: 40, Ops: 4, Allocs: 4, SimCycles: 836},
		{ID: 3, Parent: 1, Name: "switcher.call/empty", Layer: "switcher", StartNs: 50, EndNs: 90, Ops: 4, Allocs: 0, SimCycles: 836},
	}
	rows := opTable(spans)
	r := row(rows, "switcher.call/empty")
	if r.Spans != 2 || r.Ops != 8 || r.TotalNs != 80 || r.SelfNs != 80 {
		t.Fatalf("row = %+v", r)
	}
	if r.nsPerOp() != 10 || r.allocsPerOp() != 0.5 || r.cyclesPerOp() != 209 {
		t.Errorf("per-op = %v ns, %v allocs, %v cycles", r.nsPerOp(), r.allocsPerOp(), r.cyclesPerOp())
	}
	if run := row(rows, "run"); run.SelfNs != 20 {
		t.Errorf("run self = %d, want 20", run.SelfNs)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin(nil, "x", "y")
	s.end(1, 1)
	if s != nil || tr.snapshot() != nil || tr.synth(nil, "x", "y", time.Time{}, 0, 0) != nil {
		t.Fatal("nil tracer recorded a span")
	}
}
