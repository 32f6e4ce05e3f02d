package flightrec

import (
	"bytes"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/cap"
)

// TestOpStrings keeps the Op stringer exhaustive: adding an op without a
// String entry fails here rather than rendering "?" in dumps.
func TestOpStrings(t *testing.T) {
	seen := make(map[string]Op)
	for o := OpNone; o < OpCount; o++ {
		s := o.String()
		if s == "?" || s == "" {
			t.Errorf("op %d has no String()", o)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %d and %d share the name %q", prev, o, s)
		}
		seen[s] = o
		if got := OpFromString(s); got != o {
			t.Errorf("OpFromString(%q) = %d, want %d", s, got, o)
		}
	}
	if OpFromString("no-such-op") != OpCount {
		t.Error("OpFromString should return OpCount for unknown names")
	}
}

// TestNilRecorder checks every method is nil-safe: the disabled path in
// the kernel is a bare nil check.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.SetNow(func() uint64 { return 1 })
	r.SetDevice("x")
	r.Emit(Record{Op: OpCall})
	r.Call("t", "a", "b", "e", PostureInherit)
	r.Return("t", "a", "b", "e")
	r.Unwind("t", "b")
	r.Seal("a", cap.Capability{}, "")
	r.Unseal("a", "b", true)
	if r.Alloc(0, "a", "q", 0, 8, false) != 0 {
		t.Error("nil Alloc should return node 0")
	}
	r.Free(0, "a", 0)
	r.Claim(0, "a")
	r.SweepStart(1)
	r.SweepEnd(2, 10)
	r.FutexWait("t", "a", 0)
	r.FutexWake("a", 0, 1)
	r.LoadFiltered("a", cap.Capability{})
	r.Reboot("a", "t", 1)
	r.Fault("t", "b", "e", 0, "tag violation", "", cap.Capability{})
	if r.Len() != 0 || r.Dropped() != 0 || len(r.Events()) != 0 {
		t.Error("nil recorder should hold nothing")
	}
	if ch, al := r.Provenance(cap.Capability{}); ch != nil || al != nil {
		t.Error("nil Provenance should be empty")
	}
	if d := r.Snapshot(0); d.Capacity != 0 {
		t.Error("nil Snapshot should be zero")
	}
}

// TestRingWraparound verifies the fixed-size ring overwrites oldest-first
// and reports drops.
func TestRingWraparound(t *testing.T) {
	r := New(4)
	var now uint64
	r.SetNow(func() uint64 { now++; return now })
	for i := 0; i < 7; i++ {
		r.Emit(Record{Op: OpCall, Arg: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
	for i, ev := range evs {
		if want := uint64(i + 3); ev.Arg != want {
			t.Errorf("event %d has arg %d, want %d", i, ev.Arg, want)
		}
		if i > 0 && evs[i-1].Cycle > ev.Cycle {
			t.Errorf("events out of order at %d", i)
		}
	}
}

// TestProvenanceWalk builds an alloc -> free -> sweep history and checks
// a dangling capability resolves to the right allocation, owner, and
// sweep epoch.
func TestProvenanceWalk(t *testing.T) {
	r := New(64)
	var now uint64
	r.SetNow(func() uint64 { now += 10; return now })

	heap := r.Root("alloc", 0x1000, 0x9000, "shared heap")
	if heap == 0 {
		t.Fatal("root node not created")
	}
	n1 := r.Alloc(heap, "firewall", "default", 0x2000, 64, false)
	if n1 == 0 {
		t.Fatal("alloc node not created")
	}
	r.Alloc(heap, "tcpip", "default", 0x3000, 128, false)

	// A view derived from the first allocation.
	obj := cap.New(0x2000, 0x2040, 0x2010, cap.PermData)
	view, err := obj.SetBounds(16)
	if err != nil {
		t.Fatal(err)
	}
	r.Derive(n1, "firewall", view, "tighten")

	// Free it at epoch 4, then complete a sweep (epoch 5 -> 6).
	r.Free(0x2000, "firewall", 4)
	r.SweepStart(5)
	r.SweepEnd(6, 1024)

	dangling := view.ClearTag()
	chain, al := r.Provenance(dangling)
	if al == nil {
		t.Fatal("no allocation matched the dangling capability")
	}
	if al.Owner != "firewall" || al.FreedBy != "firewall" {
		t.Errorf("allocation owner/freedBy = %q/%q, want firewall", al.Owner, al.FreedBy)
	}
	if al.Live() {
		t.Error("allocation should be freed")
	}
	if al.SweepEpoch != 6 {
		t.Errorf("sweep epoch = %d, want 6", al.SweepEpoch)
	}
	if len(chain) < 2 {
		t.Fatalf("chain too short: %v", chain)
	}
	if chain[len(chain)-1].ID != heap {
		t.Errorf("chain root = node %d, want heap root %d", chain[len(chain)-1].ID, heap)
	}

	// The second allocation is still live.
	live := r.LiveAllocations()
	if len(live) != 1 || live[0].Base != 0x3000 {
		t.Fatalf("live allocations = %+v, want one at 0x3000", live)
	}
}

// TestFaultReport checks the structured post-mortem: summary sentence,
// capability field dump, provenance chain, and the ring tail.
func TestFaultReport(t *testing.T) {
	r := New(32)
	var now uint64
	r.SetNow(func() uint64 { now += 100; return now })
	r.SetDevice("dev-7")

	heap := r.Root("alloc", 0x1000, 0x9000, "shared heap")
	r.Alloc(heap, "firewall", "default", 0x2000, 256, false)
	r.Call("app", "", "tcpip", "ip_rx", PostureInherit)
	r.Free(0x2000, "firewall", 2)
	r.SweepStart(3)
	r.SweepEnd(4, 512)

	bad := cap.New(0x2000, 0x2100, 0x2080, cap.PermData).ClearTag()
	r.Fault("app", "tcpip", "ip_rx", 0x2080, "tag violation", "use of untagged capability", bad)

	reps := r.Reports()
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.Device != "dev-7" || rep.Compartment != "tcpip" || rep.Entry != "ip_rx" {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.Cap == nil || rep.Cap.Tag {
		t.Error("report should dump the untagged capability")
	}
	if rep.Allocation == nil || rep.Allocation.Owner != "firewall" {
		t.Fatalf("report should resolve the firewall allocation, got %+v", rep.Allocation)
	}
	if rep.Allocation.SweepEpoch != 4 {
		t.Errorf("sweep epoch = %d, want 4", rep.Allocation.SweepEpoch)
	}
	for _, want := range []string{"tag violation", "tcpip", "firewall", "sweep epoch 4", "dangling"} {
		if !strings.Contains(rep.Summary, want) {
			t.Errorf("summary %q missing %q", rep.Summary, want)
		}
	}
	if len(rep.Tail) == 0 {
		t.Error("report should carry the ring tail")
	}

	// Reboot marks the most recent report for the compartment.
	r.Reboot("tcpip", "app", 1)
	if !r.Reports()[0].Reboot {
		t.Error("reboot should mark the tcpip report")
	}

	var buf bytes.Buffer
	WriteReport(&buf, &rep)
	if !strings.Contains(buf.String(), "provenance") {
		t.Error("pretty-printed report missing provenance section")
	}
}

// TestDumpRoundTrip checks dump JSON encode/decode and the histogram.
func TestDumpRoundTrip(t *testing.T) {
	r := New(16)
	var now uint64
	r.SetNow(func() uint64 { now++; return now })
	r.SetDevice("d0")
	heap := r.Root("alloc", 0, 0x1000, "heap")
	r.Alloc(heap, "app", "default", 0x100, 32, false)
	r.Call("t", "app", "alloc", "heap_allocate", PostureDisabled)
	r.Return("t", "app", "alloc", "heap_allocate")

	d := r.Snapshot(33_000_000)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Device != "d0" || back.Hz != 33_000_000 || back.Capacity != 16 {
		t.Errorf("round trip lost header: %+v", back)
	}
	if len(back.Events) != len(d.Events) {
		t.Errorf("round trip lost events: %d != %d", len(back.Events), len(d.Events))
	}
	hist := back.Histogram()
	if hist["alloc"]["call"] != 1 && hist["app"]["call"] != 1 {
		t.Errorf("histogram missing call event: %v", hist)
	}
	var hb bytes.Buffer
	back.WriteHistogram(&hb)
	if !strings.Contains(hb.String(), "events") {
		t.Error("WriteHistogram produced nothing")
	}
}

// TestFreedHistoryBound checks the freed-allocation ring stays bounded
// and keeps the newest entries.
func TestFreedHistoryBound(t *testing.T) {
	r := New(8)
	heap := r.Root("alloc", 0, 1<<20, "heap")
	for i := 0; i < maxFreed+10; i++ {
		base := uint32(0x1000 + i*16)
		r.Alloc(heap, "app", "q", base, 16, false)
		r.Free(base, "app", uint64(i))
	}
	freed := r.FreedAllocations()
	if len(freed) != maxFreed {
		t.Fatalf("freed history = %d, want %d", len(freed), maxFreed)
	}
	// Newest free must be retained.
	last := freed[len(freed)-1]
	if last.Base != uint32(0x1000+(maxFreed+9)*16) {
		t.Errorf("newest freed entry lost: %+v", last)
	}
}

// TestPostureString covers the call-posture rendering.
func TestPostureString(t *testing.T) {
	if PostureString(PostureDisabled) != "irq-disabled" ||
		PostureString(PostureEnabled) != "irq-enabled" ||
		PostureString(PostureInherit) != "irq-inherit" {
		t.Error("posture rendering wrong")
	}
}
