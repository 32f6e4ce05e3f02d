// Package flightrec is the per-device black box: a fixed-size,
// allocation-free ring of typed events recording what the machine was
// doing — capability derivations with parent→child provenance ids,
// seal/unseal mediation, cross-compartment calls and returns with
// interrupt posture, heap alloc/free/claim with the owning allocation
// capability, revocation sweeps, futex traffic — plus, on every
// capability fault or forced micro-reboot, a structured post-mortem
// report that walks provenance backwards ("this dangling capability was
// derived in compartment X from allocation #N, freed during sweep #M").
//
// Design mirrors internal/telemetry: the package is a leaf (it imports
// only internal/cap), holds no process-global mutable state, and every
// method is nil-safe, so instrumented kernel code pays exactly one nil
// check when the recorder is disabled. One Recorder belongs to one
// simulated device and is driven from that device's single goroutine;
// independent Recorders (one per fleet device) need no locking.
//
// The hot path never allocates: the event ring and the provenance node
// table are preallocated at New, and records reference only strings the
// caller already holds (compartment, thread, and entry names are static
// firmware strings). Fault reports are assembled lazily, only when a
// trap actually happens — the cold path may allocate freely.
package flightrec

import "github.com/cheriot-go/cheriot/internal/cap"

// Op classifies flight-recorder events.
type Op uint8

// Event operations.
const (
	OpNone         Op = iota
	OpDerive          // capability derivation (Node child of Parent)
	OpSeal            // a capability was sealed (allocator or token API)
	OpUnseal          // a sealed capability was presented for unsealing
	OpCall            // cross-compartment call (From -> Comp.Entry, Arg = posture)
	OpReturn          // return from Comp.Entry back into From
	OpUnwind          // fault or forced unwind out of Comp
	OpTrap            // capability fault in Comp (Detail = cause)
	OpAlloc           // heap allocation (Comp = owner, Arg = bytes, Node set)
	OpFree            // final heap free (Comp = owner, Arg = bytes)
	OpClaim           // heap claim (Comp = claimant, Arg = bytes)
	OpSweepStart      // revocation sweep begins (Arg = epoch)
	OpSweepEnd        // revocation sweep completes (Arg = epoch, Arg2 = granules)
	OpFutexWait       // thread waits on a futex word (Arg = address)
	OpFutexWake       // futex wake (Arg = address, Arg2 = woken)
	OpLoadFiltered    // load filter untagged a revoked capability (Arg = base)
	OpReboot          // forced micro-reboot of Comp (Arg = reboot count)

	// OpCount is the number of ops; the exhaustiveness test iterates up
	// to it so an added op without a String entry fails CI.
	OpCount
)

// String renders the op for timelines and JSON dumps.
func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpDerive:
		return "derive"
	case OpSeal:
		return "seal"
	case OpUnseal:
		return "unseal"
	case OpCall:
		return "call"
	case OpReturn:
		return "return"
	case OpUnwind:
		return "unwind"
	case OpTrap:
		return "trap"
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	case OpClaim:
		return "claim"
	case OpSweepStart:
		return "sweep-start"
	case OpSweepEnd:
		return "sweep-end"
	case OpFutexWait:
		return "futex-wait"
	case OpFutexWake:
		return "futex-wake"
	case OpLoadFiltered:
		return "load-filtered"
	case OpReboot:
		return "reboot"
	default:
		return "?"
	}
}

// OpFromString parses the rendering String produces; it returns OpCount
// for an unknown name (cheriot-inspect uses it for -op filters).
func OpFromString(s string) Op {
	for o := OpNone; o < OpCount; o++ {
		if o.String() == s {
			return o
		}
	}
	return OpCount
}

// Record is one flight-recorder event. Field use varies by op; unused
// fields stay zero. All strings must outlive the recorder (they are
// static firmware names on the hot path).
type Record struct {
	Cycle  uint64 `json:"cycle"`
	Op     Op     `json:"op"`
	Thread string `json:"thread,omitempty"`
	// From is the caller compartment (calls/returns) or the releasing
	// compartment (frees).
	From string `json:"from,omitempty"`
	// Comp is the subject compartment: callee, owner, faulter.
	Comp   string `json:"comp,omitempty"`
	Entry  string `json:"entry,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Node/Parent are provenance ids for derivation-flavoured ops.
	Node   uint32 `json:"node,omitempty"`
	Parent uint32 `json:"parent,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
	Arg2   uint64 `json:"arg2,omitempty"`
}

// Posture codes carried in OpCall's Arg.
const (
	PostureInherit  = 0
	PostureDisabled = 1
	PostureEnabled  = 2
)

// PostureString renders an OpCall posture code.
func PostureString(p uint64) string {
	switch p {
	case PostureDisabled:
		return "irq-disabled"
	case PostureEnabled:
		return "irq-enabled"
	default:
		return "irq-inherit"
	}
}

// Node is one provenance-graph vertex: a capability (or capability
// family) with the compartment and event that created it and a link to
// the capability it was derived from. ID 0 means "no node".
type Node struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Op     Op     `json:"op"`
	Comp   string `json:"comp,omitempty"`
	Cycle  uint64 `json:"cycle"`
	Base   uint32 `json:"base"`
	Top    uint32 `json:"top"`
	Note   string `json:"note,omitempty"`
}

// AllocRecord is the recorder's view of one heap allocation: who
// allocated it against which quota, and — once freed — who freed it and
// which revocation sweep invalidated the last capabilities to it.
type AllocRecord struct {
	Node  uint32 `json:"node"`
	Seq   uint64 `json:"seq"` // allocation #Seq, monotonic per device
	Base  uint32 `json:"base"`
	Size  uint32 `json:"size"`
	Owner string `json:"owner"` // allocating compartment (quota owner)
	Quota string `json:"quota"`
	// Sealed marks heap_allocate_sealed objects.
	Sealed     bool   `json:"sealed,omitempty"`
	AllocCycle uint64 `json:"alloc_cycle"`
	// Free-side fields; zero while the allocation is live.
	FreeCycle uint64 `json:"free_cycle,omitempty"`
	FreedBy   string `json:"freed_by,omitempty"`
	FreeEpoch uint64 `json:"free_epoch,omitempty"`
	// SweepEpoch is the epoch of the first revocation sweep that
	// completed after the free — the sweep that cleared every in-memory
	// capability to this object.
	SweepEpoch uint64 `json:"sweep_epoch,omitempty"`
}

// Live reports whether the allocation has not been freed.
func (a *AllocRecord) Live() bool { return a.FreeCycle == 0 && a.FreedBy == "" }

// Bounds on the recorder's side tables. The event ring capacity is the
// caller's choice; these keep the provenance structures fixed-size too.
const (
	maxNodes   = 4096
	maxFreed   = 512
	maxReports = 32
	tailEvents = 48
)

// Recorder is the per-device flight recorder. All methods are nil-safe.
type Recorder struct {
	device string
	now    func() uint64

	ring     []Record
	capacity int
	next     int
	full     bool
	dropped  uint64

	nodes     []Node // index 0 unused; IDs are indices
	nodesFull uint64 // derivations dropped after the table filled

	live     map[uint32]*AllocRecord // by base
	freed    []AllocRecord           // ring, oldest first once full
	freedPos int
	allocSeq uint64

	sweeps uint64 // completed sweeps observed

	reports      []Report
	reportsTotal uint64
}

// New returns a recorder whose event ring holds capacity records.
// capacity <= 0 returns nil (the disabled recorder).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		return nil
	}
	return &Recorder{
		ring:     make([]Record, 0, capacity),
		capacity: capacity,
		nodes:    make([]Node, 1, 64), // ID 0 reserved
		live:     make(map[uint32]*AllocRecord),
	}
}

// SetNow installs the cycle clock used to stamp events.
func (r *Recorder) SetNow(now func() uint64) {
	if r != nil {
		r.now = now
	}
}

// SetDevice names the device in dumps and reports.
func (r *Recorder) SetDevice(name string) {
	if r != nil {
		r.device = name
	}
}

func (r *Recorder) stamp() uint64 {
	if r.now == nil {
		return 0
	}
	return r.now()
}

// Emit appends one record, stamping the cycle if unset. Nil-safe; the
// instrumented layers use the typed helpers below instead.
func (r *Recorder) Emit(rec Record) {
	if r == nil {
		return
	}
	if rec.Cycle == 0 {
		rec.Cycle = r.stamp()
	}
	if len(r.ring) < r.capacity {
		r.ring = append(r.ring, rec)
		return
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	r.full = true
	r.dropped++
}

// newNode appends a provenance node, returning its id (0 once the table
// is full — derivation events still land in the ring, unlinked).
func (r *Recorder) newNode(n Node) uint32 {
	if len(r.nodes) >= maxNodes {
		r.nodesFull++
		return 0
	}
	n.ID = uint32(len(r.nodes))
	if n.Cycle == 0 {
		n.Cycle = r.stamp()
	}
	r.nodes = append(r.nodes, n)
	return n.ID
}

// Root registers a provenance root (heap region, a thread's stack) and
// returns its node id.
func (r *Recorder) Root(comp string, base, top uint32, note string) uint32 {
	if r == nil {
		return 0
	}
	return r.newNode(Node{Op: OpNone, Comp: comp, Base: base, Top: top, Note: note})
}

// Derive records a capability derivation: child of parent, created in
// comp. It returns the child's provenance id.
func (r *Recorder) Derive(parent uint32, comp string, c cap.Capability, note string) uint32 {
	if r == nil {
		return 0
	}
	id := r.newNode(Node{Parent: parent, Op: OpDerive, Comp: comp,
		Base: c.Base(), Top: c.Top(), Note: note})
	r.Emit(Record{Op: OpDerive, Comp: comp, Node: id, Parent: parent,
		Arg: uint64(c.Base()), Detail: note})
	return id
}

// Call records a cross-compartment call with the callee's interrupt
// posture (one of the Posture* codes).
func (r *Recorder) Call(thread, caller, target, entry string, posture uint64) {
	r.Emit(Record{Op: OpCall, Thread: thread, From: caller, Comp: target,
		Entry: entry, Arg: posture})
}

// Return records a normal return from a cross-compartment call.
func (r *Recorder) Return(thread, caller, target, entry string) {
	r.Emit(Record{Op: OpReturn, Thread: thread, From: caller, Comp: target, Entry: entry})
}

// Unwind records a fault (or forced) unwind out of a compartment.
func (r *Recorder) Unwind(thread, target string) {
	r.Emit(Record{Op: OpUnwind, Thread: thread, Comp: target})
}

// Seal records a sealing operation.
func (r *Recorder) Seal(comp string, c cap.Capability, note string) {
	r.Emit(Record{Op: OpSeal, Comp: comp, Arg: uint64(c.Base()), Detail: note})
}

// Unseal records an unsealing attempt; ok reports whether the authority
// matched.
func (r *Recorder) Unseal(comp, caller string, ok bool) {
	arg := uint64(0)
	if ok {
		arg = 1
	}
	r.Emit(Record{Op: OpUnseal, Comp: comp, From: caller, Arg: arg})
}

// Alloc records a heap allocation owned by quota (owner compartment),
// creating the allocation's provenance node, and for a sealed object its
// sealing. heapNode, if non-zero, is the heap-region root the object
// capability was derived from.
func (r *Recorder) Alloc(heapNode uint32, owner, quotaName string, base, size uint32, sealed bool) uint32 {
	if r == nil {
		return 0
	}
	r.allocSeq++
	note := "heap_allocate"
	if sealed {
		note = "heap_allocate_sealed"
	}
	id := r.newNode(Node{Parent: heapNode, Op: OpAlloc, Comp: owner,
		Base: base, Top: base + size, Note: note})
	ar := &AllocRecord{Node: id, Seq: r.allocSeq, Base: base, Size: size,
		Owner: owner, Quota: quotaName, Sealed: sealed, AllocCycle: r.stamp()}
	r.live[base] = ar
	r.Emit(Record{Op: OpAlloc, Comp: owner, Detail: quotaName,
		Node: id, Parent: heapNode, Arg: uint64(size), Arg2: uint64(base)})
	if sealed {
		r.Emit(Record{Op: OpSeal, Comp: owner, Arg: uint64(base), Detail: note})
	}
	return id
}

// Free records the final free of the allocation at base. epoch is the
// revocation epoch at free time; the sweep that completes after it is
// stamped onto the record by SweepEnd.
func (r *Recorder) Free(base uint32, by string, epoch uint64) {
	if r == nil {
		return
	}
	ar, ok := r.live[base]
	if !ok {
		r.Emit(Record{Op: OpFree, From: by, Arg2: uint64(base)})
		return
	}
	delete(r.live, base)
	ar.FreeCycle = r.stamp()
	ar.FreedBy = by
	ar.FreeEpoch = epoch
	// Keep the most recent maxFreed freed allocations for post-mortem
	// matching.
	if len(r.freed) < maxFreed {
		r.freed = append(r.freed, *ar)
	} else {
		r.freed[r.freedPos] = *ar
		r.freedPos = (r.freedPos + 1) % maxFreed
	}
	r.Emit(Record{Op: OpFree, From: by, Comp: ar.Owner, Node: ar.Node,
		Arg: uint64(ar.Size), Arg2: uint64(base)})
}

// Claim records a heap claim by a new owner.
func (r *Recorder) Claim(base uint32, claimant string) {
	if r == nil {
		return
	}
	var node uint32
	var size uint64
	if ar, ok := r.live[base]; ok {
		node = ar.Node
		size = uint64(ar.Size)
	}
	r.Emit(Record{Op: OpClaim, Comp: claimant, Node: node, Arg: size, Arg2: uint64(base)})
}

// SweepStart records the start of a revocation sweep.
func (r *Recorder) SweepStart(epoch uint64) {
	r.Emit(Record{Op: OpSweepStart, Arg: epoch})
}

// SweepEnd records a completed revocation sweep (granules scanned in
// Arg2) and stamps it onto every freed allocation the sweep invalidated.
func (r *Recorder) SweepEnd(epoch, granules uint64) {
	if r == nil {
		return
	}
	r.sweeps++
	for i := range r.freed {
		f := &r.freed[i]
		if f.SweepEpoch == 0 && f.FreeEpoch < epoch {
			f.SweepEpoch = epoch
		}
	}
	r.Emit(Record{Op: OpSweepEnd, Arg: epoch, Arg2: granules})
}

// Sweeps returns the number of completed sweeps observed.
func (r *Recorder) Sweeps() uint64 {
	if r == nil {
		return 0
	}
	return r.sweeps
}

// FutexWait records a futex wait on a word address.
func (r *Recorder) FutexWait(thread, caller string, addr uint32) {
	r.Emit(Record{Op: OpFutexWait, Thread: thread, From: caller, Arg: uint64(addr)})
}

// FutexWake records a futex wake releasing woken waiters.
func (r *Recorder) FutexWake(comp string, addr uint32, woken int) {
	r.Emit(Record{Op: OpFutexWake, Comp: comp, Arg: uint64(addr), Arg2: uint64(woken)})
}

// LoadFiltered records the load filter untagging a capability whose base
// granule is revoked — the earliest observable sign of a dangling
// pointer (§2.1's temporal-safety mechanism firing).
func (r *Recorder) LoadFiltered(comp string, c cap.Capability) {
	r.Emit(Record{Op: OpLoadFiltered, Comp: comp, Arg: uint64(c.Base()),
		Arg2: uint64(c.Address())})
}

// Reboot records a forced micro-reboot of comp (count = completed
// reboots including this one) and marks the compartment's most recent
// fault report as having escalated to a reboot.
func (r *Recorder) Reboot(comp, thread string, count int) {
	if r == nil {
		return
	}
	r.Emit(Record{Op: OpReboot, Thread: thread, Comp: comp, Arg: uint64(count)})
	for i := len(r.reports) - 1; i >= 0; i-- {
		if r.reports[i].Compartment == comp {
			r.reports[i].Reboot = true
			break
		}
	}
}

// Events returns the ring's records in chronological order.
func (r *Recorder) Events() []Record {
	if r == nil {
		return nil
	}
	if !r.full {
		return append([]Record(nil), r.ring...)
	}
	out := make([]Record, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Len returns the number of records currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Dropped returns how many records were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Nodes returns the provenance node table (index 0 is the reserved
// null node).
func (r *Recorder) Nodes() []Node {
	if r == nil {
		return nil
	}
	return append([]Node(nil), r.nodes...)
}

// NodeByID returns a provenance node, or a zero Node for unknown ids.
func (r *Recorder) NodeByID(id uint32) Node {
	if r == nil || id == 0 || int(id) >= len(r.nodes) {
		return Node{}
	}
	return r.nodes[id]
}

// LiveAllocations returns the live-allocation records sorted by base.
func (r *Recorder) LiveAllocations() []AllocRecord {
	if r == nil {
		return nil
	}
	out := make([]AllocRecord, 0, len(r.live))
	for _, a := range r.live {
		out = append(out, *a)
	}
	sortAllocs(out)
	return out
}

// FreedAllocations returns the retained freed-allocation history,
// oldest first.
func (r *Recorder) FreedAllocations() []AllocRecord {
	if r == nil {
		return nil
	}
	if len(r.freed) < maxFreed {
		return append([]AllocRecord(nil), r.freed...)
	}
	out := make([]AllocRecord, 0, len(r.freed))
	out = append(out, r.freed[r.freedPos:]...)
	out = append(out, r.freed[:r.freedPos]...)
	return out
}

func sortAllocs(a []AllocRecord) {
	// Insertion sort: the slice is small and this keeps the package free
	// of sort's interface allocations on the snapshot path.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1].Base > a[j].Base; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// findAllocation matches an address to the allocation covering it:
// live allocations first, then the freed history newest-first (a
// dangling capability refers to the most recent allocation at that
// address).
func (r *Recorder) findAllocation(addr uint32) *AllocRecord {
	for base, a := range r.live {
		if addr >= base && addr < base+a.Size {
			out := *a
			return &out
		}
	}
	freed := r.FreedAllocations()
	for i := len(freed) - 1; i >= 0; i-- {
		a := freed[i]
		if addr >= a.Base && addr < a.Base+a.Size {
			return &a
		}
	}
	return nil
}

// Provenance walks the provenance chain for a capability: the node
// whose bounds cover the capability's base (preferring its matched
// allocation's node), then parent links back to the root. The chain is
// ordered newest first.
func (r *Recorder) Provenance(c cap.Capability) ([]Node, *AllocRecord) {
	if r == nil {
		return nil, nil
	}
	// A capability untagged by the load filter keeps its bounds, but one
	// reloaded from memory after the sweep cleared its tag bit is an
	// address-only value (base and top both zero): fall back to the
	// cursor in that case.
	addr := c.Base()
	if c.Top() == c.Base() {
		addr = c.Address()
	}
	alloc := r.findAllocation(addr)
	var start uint32
	if alloc != nil {
		start = alloc.Node
	} else {
		// Fall back to the most recent node covering the address.
		for i := len(r.nodes) - 1; i >= 1; i-- {
			n := r.nodes[i]
			if addr >= n.Base && addr < n.Top {
				start = n.ID
				break
			}
		}
	}
	var chain []Node
	for id := start; id != 0 && len(chain) < 64; {
		n := r.NodeByID(id)
		if n.ID == 0 {
			break
		}
		chain = append(chain, n)
		id = n.Parent
	}
	return chain, alloc
}
