package main

import (
	"fmt"
	"math"
	"time"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/iotapp"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/token"
)

// paperRef is one number the paper reports and the repository cites.
type paperRef struct {
	Figure string  `json:"figure"`
	Name   string  `json:"name"`
	Paper  float64 `json:"paper"`
	// Upper marks a number the paper gives only as an upper bound ("<10").
	Upper bool `json:"upper,omitempty"`
	// HeldOut marks the Fig. 7 rows: hw/costs.go is calibrated against
	// Fig. 6a, Fig. 6b and Table 3, never against Fig. 7.
	HeldOut bool `json:"held_out,omitempty"`
}

// paperRefs lists every paper number EXPERIMENTS.md compares against.
// Fig. 6b's "~5 MiB/s at >1 KiB" is taken at the three sizes below the
// 32 KiB revoker knee; Table 3's zero-cost rows have no relative error
// and are left out.
var paperRefs = []paperRef{
	{Figure: "Fig. 6a", Name: "empty call (cycles)", Paper: 209},
	{Figure: "Fig. 6a", Name: "call, 256 B stack (cycles)", Paper: 452},
	{Figure: "Fig. 6a", Name: "call, 1 KiB stack (cycles)", Paper: 1284},
	{Figure: "Fig. 6a", Name: "revoker IRQ latency (cycles)", Paper: 1028},
	{Figure: "Fig. 6b", Name: "1 KiB alloc rate (MiB/s)", Paper: 5},
	{Figure: "Fig. 6b", Name: "4 KiB alloc rate (MiB/s)", Paper: 5},
	{Figure: "Fig. 6b", Name: "16 KiB alloc rate (MiB/s)", Paper: 5},
	{Figure: "Table 3", Name: "unseal an object", Paper: 44.8},
	{Figure: "Table 3", Name: "allocate a sealed object", Paper: 2432.2},
	{Figure: "Table 3", Name: "allocate a new key", Paper: 688},
	{Figure: "Table 3", Name: "de-privilege a pointer", Paper: 10, Upper: true},
	{Figure: "Table 3", Name: "check a pointer", Paper: 44},
	{Figure: "Table 3", Name: "ephemeral claim", Paper: 182},
	{Figure: "Table 3", Name: "heap claim + unclaim", Paper: 371.4},
	{Figure: "Table 3", Name: "fault + unwind, no handler", Paper: 109},
	{Figure: "Table 3", Name: "fault + unwind, global handler", Paper: 413},
	{Figure: "Table 3", Name: "scoped handler, non-error path", Paper: 87},
	{Figure: "Table 3", Name: "scoped handler, fault + unwind", Paper: 222},
	{Figure: "Fig. 7", Name: "average CPU load (%)", Paper: 46.5, HeldOut: true},
	{Figure: "Fig. 7", Name: "TCP/IP micro-reboot (ms)", Paper: 270, HeldOut: true},
	{Figure: "Fig. 7", Name: "trace length (s)", Paper: 52, HeldOut: true},
}

// paperRow is a cited number beside the simulator's.
type paperRow struct {
	paperRef
	Measured float64 `json:"measured"`
}

// errPct is the absolute relative error in percent; an upper-bound
// reference is met by any value at or below it.
func (r paperRow) errPct() float64 {
	if r.Upper && r.Measured <= r.Paper {
		return 0
	}
	return 100 * math.Abs(r.Measured-r.Paper) / r.Paper
}

// paperErrors returns the mean error over all rows and over the held-out
// rows.
func paperErrors(rows []paperRow) (all, heldOut float64) {
	var n, h int
	for _, r := range rows {
		all += r.errPct()
		n++
		if r.HeldOut {
			heldOut += r.errPct()
			h++
		}
	}
	if n > 0 {
		all /= float64(n)
	}
	if h > 0 {
		heldOut /= float64(h)
	}
	return all, heldOut
}

// Iteration counts of the micro-workloads.
const (
	callIters    = 5000
	libCallIters = 20000
	irqIters     = 200
	probeIters   = 20000
	table3Reps   = 16
	// fig6bVolume is the allocation volume per size: 8x the heap, as in
	// §5.3.2.
	fig6bVolume = 8 * 220 * 1024
)

// fig6bSizes sweeps from call-bound (16 B) to revoker-bound (112 KiB).
var fig6bSizes = []uint32{16, 64, 256, 1024, 4096, 16384, 32768, 49152, 65536, 98304, 114688}

// paperPass is one repetition of paper-device: every micro-workload once,
// in a seed-shuffled order, each on its own freshly booted system.
type paperPass struct {
	r     *repResult
	tr    *tracer
	root  *span
	rng   *rng
	armed bool
	// runSpan is the System.Run span of the running micro-workload, the
	// parent of its batch spans.
	runSpan  *span
	profiles []*prof.Profile

	measured map[string]float64
	cycles   map[string]uint64
	fig7     *iotapp.Result
	denied   uint64
}

func paperRep(o repOpts) repResult {
	var r repResult
	p := &paperPass{r: &r, tr: o.tr, root: o.root, rng: newRNG(o.seed, 0),
		armed: o.counterpart, measured: map[string]float64{}, cycles: map[string]uint64{}}
	steps := []func(){
		func() { p.callLatency("fig6a.empty", 0, "empty call (cycles)", "switcher.call/empty") },
		func() { p.callLatency("fig6a.stack256", 256, "call, 256 B stack (cycles)", "switcher.call/stack256") },
		func() { p.callLatency("fig6a.stack1k", 1024, "call, 1 KiB stack (cycles)", "switcher.call/stack1k") },
		p.libCall,
		p.irqLatency,
		p.allocSweep,
		p.table3,
		p.probes,
		p.caseStudy,
	}
	for _, i := range p.rng.perm(len(steps)) {
		steps[i]()
	}

	rows := make([]paperRow, 0, len(paperRefs))
	var missing []string
	for _, ref := range paperRefs {
		v, ok := p.measured[ref.Name]
		if !ok {
			missing = append(missing, ref.Name)
		}
		rows = append(rows, paperRow{ref, v})
	}
	r.check("every paper number measured", len(missing) == 0, "missing %v", missing)
	all, held := paperErrors(rows)
	r.sim = map[string]float64{"paper_err_pct": all, "paper_heldout_err_pct": held}
	var total uint64
	for _, c := range p.cycles {
		total += c
	}
	r.simSeconds = float64(total) / hw.DefaultHz
	r.paperDigest = digest(rows)
	r.digest = digest(struct {
		Rows   []paperRow
		Cycles map[string]uint64
		Fig7   *iotapp.Result
		Denied uint64
	}{rows, p.cycles, p.fig7, p.denied})
	r.check("allocator refused nothing", p.denied == 0, "%d allocations denied", p.denied)
	r.layers = map[string]float64{"alloc.denied": float64(p.denied)}
	if p.fig7 != nil {
		r.layers["netstack.reboot_sim_ms"] = p.fig7.RebootMs
	}
	if len(p.profiles) > 0 {
		r.profile = prof.Merge(p.profiles...)
	}
	return r
}

// exec builds and boots an image (set-up) and runs it to completion
// (the run phase), under one span per step.
func (p *paperPass) exec(name string, build func() *firmware.Image) {
	ws := p.tr.begin(p.root, name, "bench")
	defer ws.end(1, 0)
	t0 := time.Now()
	img := build()
	bs := p.tr.begin(ws, "core.Boot", "core")
	s, err := core.Boot(img)
	bs.end(1, 0)
	p.r.setup += time.Since(t0)
	p.r.attempted++
	if err != nil {
		p.r.fail("%s: boot: %v", name, err)
		return
	}
	defer s.Shutdown()
	p.instrument(s)
	p.runSpan = p.tr.begin(ws, "System.Run", "sched")
	t1 := time.Now()
	err = s.Run(nil)
	p.r.run += time.Since(t1)
	p.runSpan.end(1, s.Cycles())
	p.cycles[name] += s.Cycles()
	p.collect(s)
	if err != nil {
		p.r.fail("%s: run: %v", name, err)
	}
}

// instrument arms the instrumentation layers on a freshly booted system:
// all of them on the counterpart repetition, the profiler alone on a
// traced one.
func (p *paperPass) instrument(s *core.System) {
	if p.armed {
		s.EnableTelemetry(0)
		s.EnableFlightRecorder(512)
	}
	if p.armed || p.tr != nil {
		s.EnableProfiler()
	}
}

func (p *paperPass) collect(s *core.System) {
	if pr := s.Profiler(); pr != nil {
		p.profiles = append(p.profiles, pr.Snapshot())
	}
}

// call makes one compartment call and counts it.
func (p *paperPass) call(ctx api.Context, comp, entry string, args ...api.Value) []api.Value {
	p.r.attempted++
	rets, err := ctx.Call(comp, entry, args...)
	if err != nil {
		p.r.fail("call %s.%s: %v", comp, entry, err)
	}
	return rets
}

// apiCall makes a compartment call whose first return is an errno.
func (p *paperPass) apiCall(ctx api.Context, comp, entry string, args ...api.Value) []api.Value {
	rets := p.call(ctx, comp, entry, args...)
	if e := api.ErrnoOf(rets); e != api.OK {
		p.r.fail("call %s.%s: errno %v", comp, entry, e)
	}
	return rets
}

func (p *paperPass) malloc(ctx api.Context, size uint32) cap.Capability {
	p.r.attempted++
	obj, e := alloc.Client{}.Malloc(ctx, size)
	if e != api.OK {
		p.denied++
		p.r.fail("malloc(%d): %v", size, e)
	}
	return obj
}

func (p *paperPass) free(ctx api.Context, obj cap.Capability) {
	p.r.attempted++
	if e := (alloc.Client{}).Free(ctx, obj); e != api.OK {
		p.r.fail("free: %v", e)
	}
}

func (p *paperPass) ok(cond bool, format string, args ...any) {
	p.r.attempted++
	if !cond {
		p.r.fail(format, args...)
	}
}

// mainThread adds the benchmark thread running entry "main" of comp.
func mainThread(img *firmware.Image, comp string, stack uint32, frames int) {
	img.AddThread(&firmware.Thread{Name: "bench", Compartment: comp, Entry: "main",
		Priority: 1, StackSize: stack, TrustedStackFrames: frames})
}

func noop(api.Context, []api.Value) []api.Value { return nil }

// callLatency is Fig. 6a: compartment-call round trips into a callee that
// declares minStack bytes of stack, after one warm-up call as in the
// paper's method.
func (p *paperPass) callLatency(name string, minStack uint32, ref, spanName string) {
	var cycles uint64
	p.exec(name, func() *firmware.Image {
		img := core.NewImage(name)
		img.AddCompartment(&firmware.Compartment{Name: "server", CodeSize: 128,
			Exports: []*firmware.Export{{Name: "fn", MinStack: minStack, Entry: noop}}})
		img.AddCompartment(&firmware.Compartment{Name: "caller", CodeSize: 128,
			Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "server", Entry: "fn"}},
			Exports: []*firmware.Export{{Name: "main", MinStack: 128,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					p.call(ctx, "server", "fn")
					sp := p.tr.begin(p.runSpan, spanName, "switcher")
					start := ctx.Now()
					for i := 0; i < callIters; i++ {
						p.call(ctx, "server", "fn")
					}
					cycles = ctx.Now() - start
					sp.end(callIters, cycles)
					return nil
				}}}})
		mainThread(img, "caller", 4096, 8)
		return img
	})
	p.measured[ref] = float64(cycles) / callIters
}

// libCall times shared-library calls through their sentry.
func (p *paperPass) libCall() {
	p.exec("fig6a.lib", func() *firmware.Image {
		img := core.NewImage("fig6a.lib")
		img.AddLibrary(&firmware.Library{Name: "mathlib", CodeSize: 64,
			Funcs: []*firmware.Export{{Name: "id", Entry: func(ctx api.Context, args []api.Value) []api.Value {
				return args
			}}}})
		salt := uint32(p.rng.next())
		img.AddCompartment(&firmware.Compartment{Name: "caller", CodeSize: 128,
			Imports: []firmware.Import{{Kind: firmware.ImportLib, Target: "mathlib", Entry: "id"}},
			Exports: []*firmware.Export{{Name: "main", MinStack: 128,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					sp := p.tr.begin(p.runSpan, "switcher.lib_call", "switcher")
					start := ctx.Now()
					for i := 0; i < libCallIters; i++ {
						v := salt + uint32(i)
						rets := ctx.LibCall("mathlib", "id", api.W(v))
						p.ok(len(rets) == 1 && rets[0].AsWord() == v, "lib call returned %v", rets)
					}
					sp.end(libCallIters, ctx.Now()-start)
					return nil
				}}}})
		mainThread(img, "caller", 2048, 4)
		return img
	})
}

// irqLatency is Fig. 6a's interrupt latency: a high-priority thread
// requests a revoker interrupt and waits on its futex while a
// low-priority thread keeps timestamping; the latency is the gap between
// the last low-priority stamp and the high-priority thread running again.
func (p *paperPass) irqLatency() {
	var total, lowStamp uint64
	done := false
	p.exec("fig6a.irq", func() *firmware.Image {
		img := core.NewImage("fig6a.irq")
		// A small SRAM keeps each revocation sweep short; the latency path
		// does not depend on it.
		img.SRAM = 32 * 1024
		img.AddCompartment(&firmware.Compartment{Name: "irq", CodeSize: 256, DataSize: 16,
			Imports: append(sched.Imports(),
				firmware.Import{Kind: firmware.ImportMMIO, Target: firmware.DeviceRevoker}),
			Exports: []*firmware.Export{
				{Name: "main", MinStack: 512, Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					defer func() { done = true }()
					rets := p.apiCall(ctx, sched.Name, sched.EntryIRQFutex, api.W(uint32(hw.IRQRevoker)))
					if len(rets) < 2 {
						return nil
					}
					word := rets[1].Cap
					mmio := ctx.MMIO(firmware.DeviceRevoker)
					sp := p.tr.begin(p.runSpan, "sched.irq_wait_wake", "sched")
					for i := 0; i < irqIters; i++ {
						seen := ctx.Load32(word)
						ctx.Store32(mmio.WithAddress(hw.RevokerBase+hw.RevokerGo), 1)
						p.apiCall(ctx, sched.Name, sched.EntryFutexWait, api.C(word), api.W(seen), api.W(0))
						total += ctx.Now() - lowStamp
					}
					sp.end(irqIters, total)
					return nil
				}},
				{Name: "low", MinStack: 256, Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					for !done {
						lowStamp = ctx.Now()
						ctx.Work(8)
					}
					return nil
				}},
			}})
		img.AddThread(&firmware.Thread{Name: "high", Compartment: "irq", Entry: "main",
			Priority: 9, StackSize: 4096, TrustedStackFrames: 8})
		img.AddThread(&firmware.Thread{Name: "low", Compartment: "irq", Entry: "low",
			Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
		return img
	})
	p.measured["revoker IRQ latency (cycles)"] = float64(total) / irqIters
}

// allocSweep is Fig. 6b: malloc/free of one size until 8x the heap has
// been allocated, for each size of the sweep, each on a fresh system.
func (p *paperPass) allocSweep() {
	for _, size := range fig6bSizes {
		size := size
		iters := fig6bVolume / int(size)
		var cycles uint64
		name := fmt.Sprintf("fig6b.%dB", size)
		p.exec(name, func() *firmware.Image {
			img := core.NewImage(name)
			salt := uint32(p.rng.next())
			img.AddCompartment(&firmware.Compartment{Name: "alloc-bench", CodeSize: 256,
				AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 230 * 1024}},
				Imports:   alloc.Imports(),
				Exports: []*firmware.Export{{Name: "main", MinStack: 512,
					Entry: func(ctx api.Context, _ []api.Value) []api.Value {
						sp := p.tr.begin(p.runSpan, fmt.Sprintf("alloc.pair/%dB", size), "alloc")
						start := ctx.Now()
						for i := 0; i < iters; i++ {
							obj := p.malloc(ctx, size)
							if !obj.Valid() {
								break
							}
							ctx.Store32(obj, salt+uint32(i))
							p.free(ctx, obj)
						}
						cycles = ctx.Now() - start
						sp.end(uint64(iters), cycles)
						return nil
					}}}})
			mainThread(img, "alloc-bench", 4096, 8)
			return img
		})
		if cycles == 0 || size < 1024 {
			continue
		}
		mibps := float64(iters) * float64(size) / (1 << 20) / (float64(cycles) / hw.DefaultHz)
		p.measured[fmt.Sprintf("%d KiB alloc rate (MiB/s)", size/1024)] = mibps
	}
}

// table3 is Table 3: the core API latencies, each averaged over
// table3Reps calls.
func (p *paperPass) table3() {
	handlerRan := 0
	p.exec("table3", func() *firmware.Image {
		img := core.NewImage("table3")
		token.AddLibTo(img)
		libs.AddCheckTo(img)
		crash := func(ctx api.Context, _ []api.Value) []api.Value {
			ctx.Fault(hw.TrapIllegalInstruction, "bench")
			return nil
		}
		img.AddCompartment(&firmware.Compartment{Name: "victim-plain", CodeSize: 128,
			Exports: []*firmware.Export{{Name: "ok", Entry: noop}, {Name: "crash", Entry: crash}}})
		img.AddCompartment(&firmware.Compartment{Name: "victim-handler", CodeSize: 128,
			ErrorHandler: func(ctx api.Context, t *hw.Trap) api.HandlerDecision {
				handlerRan++
				return api.HandlerUnwind
			},
			Exports: []*firmware.Export{{Name: "crash", Entry: crash}}})
		imports := append(alloc.Imports(), token.Imports()...)
		imports = append(imports, token.LibImports()...)
		imports = append(imports, libs.CheckImports()...)
		imports = append(imports,
			firmware.Import{Kind: firmware.ImportCall, Target: "victim-plain", Entry: "ok"},
			firmware.Import{Kind: firmware.ImportCall, Target: "victim-plain", Entry: "crash"},
			firmware.Import{Kind: firmware.ImportCall, Target: "victim-handler", Entry: "crash"})
		img.AddCompartment(&firmware.Compartment{Name: "api-bench", CodeSize: 512, DataSize: 64,
			AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 64 * 1024}},
			Imports:   imports,
			Exports: []*firmware.Export{{Name: "main", MinStack: 2048,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					p.table3Body(ctx)
					return nil
				}}}})
		mainThread(img, "api-bench", 16*1024, 16)
		return img
	})
	p.ok(handlerRan == table3Reps, "global error handler ran %d times, want %d", handlerRan, table3Reps)
}

func (p *paperPass) table3Body(ctx api.Context) {
	cl := alloc.Client{}
	// timed runs fn table3Reps times under one span and returns the
	// simulated cycles the calls took.
	timed := func(spanName, layer string, fn func()) uint64 {
		sp := p.tr.begin(p.runSpan, spanName, layer)
		var total uint64
		for i := 0; i < table3Reps; i++ {
			start := ctx.Now()
			fn()
			total += ctx.Now() - start
		}
		sp.end(table3Reps, total)
		return total
	}
	record := func(ref string, cycles uint64) {
		p.measured[ref] = float64(cycles) / table3Reps
	}
	p.r.attempted++
	key, e := token.KeyNew(ctx)
	if e != api.OK {
		p.r.fail("token key: %v", e)
		return
	}
	p.r.attempted++
	sobj, e := cl.MallocSealed(ctx, key, 32)
	if e != api.OK {
		p.denied++
		p.r.fail("sealed malloc: %v", e)
		return
	}
	record("unseal an object", timed("token.unseal", "token", func() {
		rets := ctx.LibCall(token.LibName, token.FnUnsealFast, api.C(key), api.C(sobj))
		p.ok(api.ErrnoOf(rets) == api.OK, "unseal: %v", api.ErrnoOf(rets))
	}))
	var sealed uint64
	for i := 0; i < table3Reps; i++ {
		sp := p.tr.begin(p.runSpan, "alloc.malloc_sealed", "alloc")
		start := ctx.Now()
		s2, e := cl.MallocSealed(ctx, key, 32)
		c := ctx.Now() - start
		sp.end(1, c)
		sealed += c
		p.ok(e == api.OK, "sealed malloc: %v", e)
		if e != api.OK {
			p.denied++
			continue
		}
		p.ok(cl.FreeSealed(ctx, key, s2) == api.OK, "sealed free")
	}
	record("allocate a sealed object", sealed)
	record("allocate a new key", timed("token.key_new", "token", func() {
		_, e := token.KeyNew(ctx)
		p.ok(e == api.OK, "key new: %v", e)
	}))
	g := ctx.Globals()
	record("de-privilege a pointer", timed("libs.read_only", "libs", func() {
		_, ok := libs.ReadOnly(ctx, g)
		p.ok(ok, "read-only derivation failed")
	}))
	record("check a pointer", timed("libs.check_pointer", "libs", func() {
		p.ok(libs.CheckPointer(ctx, g, cap.PermLoad, 16), "pointer check failed")
	}))
	obj := p.malloc(ctx, 64)
	record("ephemeral claim", timed("alloc.ephemeral_claim", "alloc", func() { ctx.EphemeralClaim(obj) }))
	record("heap claim + unclaim", timed("alloc.claim_unclaim", "alloc", func() {
		p.ok(cl.Claim(ctx, obj) == api.OK, "claim failed")
		p.ok(cl.Free(ctx, obj) == api.OK, "unclaim failed")
	}))
	// Net unwind cost: faulting call minus clean call.
	clean := timed("switcher.call_clean", "switcher", func() { p.call(ctx, "victim-plain", "ok") })
	unwound := timed("switcher.fault_unwind", "switcher", func() { ctx.Call("victim-plain", "crash") })
	handled := timed("switcher.fault_handler", "switcher", func() { ctx.Call("victim-handler", "crash") })
	record("fault + unwind, no handler", unwound-clean)
	record("fault + unwind, global handler", handled-clean)
	record("scoped handler, non-error path", timed("switcher.scoped_ok", "switcher", func() {
		ctx.During(func() {}, func(*hw.Trap) {})
	}))
	record("scoped handler, fault + unwind", timed("switcher.scoped_fault", "switcher", func() {
		ctx.During(func() { ctx.Fault(hw.TrapBoundsViolation, "bench") }, func(*hw.Trap) {})
	}))
	p.free(ctx, obj)
}

// probes times the layers under every compartment's memory accesses:
// word loads and stores, capability loads through the load filter, and
// capability bounds derivation.
func (p *paperPass) probes() {
	p.exec("probes", func() *firmware.Image {
		img := core.NewImage("probes")
		salt := uint32(p.rng.next())
		img.AddCompartment(&firmware.Compartment{Name: "probe", CodeSize: 256,
			AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
			Imports:   alloc.Imports(),
			Exports: []*firmware.Export{{Name: "main", MinStack: 512,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					const size = 256
					obj := p.malloc(ctx, size)
					if !obj.Valid() {
						return nil
					}
					base := obj.Base()
					sp := p.tr.begin(p.runSpan, "mem.word", "mem")
					start := ctx.Now()
					for i := 0; i < probeIters; i++ {
						at := obj.WithAddress(base + (salt+uint32(i))%(size/4)*4)
						ctx.Store32(at, ctx.Load32(at)+salt)
					}
					sp.end(probeIters, ctx.Now()-start)

					ctx.StoreCap(obj, obj)
					sp = p.tr.begin(p.runSpan, "mem.cap_load", "mem")
					start = ctx.Now()
					for i := 0; i < probeIters; i++ {
						c := ctx.LoadCap(obj)
						p.ok(c.Valid() && c.Base() == base, "capability load lost its tag")
					}
					sp.end(probeIters, ctx.Now()-start)

					sp = p.tr.begin(p.runSpan, "cap.derive", "cap")
					for i := 0; i < probeIters; i++ {
						off := (salt + uint32(i)) % (size - 16)
						c, err := obj.WithAddress(base + off).SetBounds(16)
						p.ok(err == nil && c.Length() == 16, "derive at +%d: %v", off, err)
					}
					sp.end(probeIters, 0)
					p.free(ctx, obj)
					return nil
				}}}})
		mainThread(img, "probe", 4096, 8)
		return img
	})
}

// caseStudy is Fig. 7: the whole §5.3.3 deployment through setup, NTP
// sync, connect, steady state, a ping of death micro-rebooting TCP/IP,
// recovery and two delivered notifications.
func (p *paperPass) caseStudy() {
	ws := p.tr.begin(p.root, "fig7", "bench")
	defer ws.end(1, 0)
	t0 := time.Now()
	bs := p.tr.begin(ws, "iotapp.Build", "core")
	app, err := iotapp.Build()
	bs.end(1, 0)
	p.r.setup += time.Since(t0)
	p.r.attempted++
	if err != nil {
		p.r.fail("fig7: build: %v", err)
		return
	}
	defer app.Shutdown()
	p.instrument(app.Sys)
	rs := p.tr.begin(ws, "iotapp.Run", "iotapp")
	t1 := time.Now()
	res, err := app.Run()
	p.r.run += time.Since(t1)
	rs.end(1, app.Sys.Cycles())
	p.cycles["fig7"] += app.Sys.Cycles()
	p.collect(app.Sys)
	if err != nil {
		p.r.fail("fig7: run: %v", err)
		return
	}
	p.ok(res.Notifications == 2, "fig7: %d notifications delivered, want 2", res.Notifications)
	p.ok(res.Reboots >= 1, "fig7: the ping of death caused no micro-reboot")
	p.fig7 = res
	p.measured["average CPU load (%)"] = res.AvgLoadPct
	p.measured["TCP/IP micro-reboot (ms)"] = res.RebootMs
	p.measured["trace length (s)"] = res.TotalSeconds
}
