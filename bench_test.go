// Benchmarks regenerating the paper's performance figures (§5.3.2).
//
// Every benchmark reports *simulated* cycles (and derived MiB/s) via
// b.ReportMetric; host ns/op is meaningless for the reproduction and
// should be ignored. EXPERIMENTS.md compares each number against the
// paper. Run with:
//
//	go test -bench=. -benchmem .
package cheriot_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// printed dedupes table output across the harness's b.N re-runs.
var printed sync.Map

func printOnce(key, s string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Print(s)
	}
}

// runImage boots img, lets arm (when non-nil) attach instruments, and
// runs it to completion, failing tb on error.
func runImage(tb testing.TB, img *firmware.Image, arm func(*core.System)) *core.System {
	tb.Helper()
	s, err := core.Boot(img)
	if err != nil {
		tb.Fatalf("Boot: %v", err)
	}
	if arm != nil {
		arm(s)
	}
	if err := s.Run(nil); err != nil {
		s.Shutdown()
		tb.Fatalf("Run: %v", err)
	}
	s.Shutdown()
	return s
}

func nop(ctx api.Context, args []api.Value) []api.Value { return nil }

// BenchmarkFig6a_CallLatency measures cross-compartment call round trips
// at increasing stack usage. Fig. 6a reports 209 cycles for an empty
// call, 452 with 256 B of stack, and 1284 for the 1 KiB worst case.
func BenchmarkFig6a_CallLatency(b *testing.B) {
	cases := []struct {
		name     string
		minStack uint32
		paper    float64
	}{
		{"empty_call", 0, 209},
		{"stack_256B", 256, 452},
		{"stack_1KiB", 1024, 1284},
	}
	printOnce("fig6a-head", "\nFig. 6a — compartment-call latency vs stack usage:\n")
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			per := float64(callCycles(b, tc.minStack, b.N, nil)) / float64(b.N)
			b.ReportMetric(per, "simcycles/call")
			printOnce("fig6a-"+tc.name,
				fmt.Sprintf("  %-12s %8.1f cycles (paper: %6.1f)\n", tc.name, per, tc.paper))
		})
	}
}

// callCycles returns the simulated cycles of n compartment calls into an
// entry declaring minStack bytes of stack, after one warm-up call.
func callCycles(tb testing.TB, minStack uint32, n int, arm func(*core.System)) uint64 {
	var cycles uint64
	img := core.NewImage("fig6a")
	img.AddCompartment(&firmware.Compartment{
		Name: "server", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "fn", MinStack: minStack, Entry: nop}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "server", Entry: "fn"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				// One warm-up call, as in the paper's methodology.
				if _, err := ctx.Call("server", "fn"); err != nil {
					tb.Errorf("warm-up: %v", err)
					return nil
				}
				start := ctx.Now()
				for i := 0; i < n; i++ {
					if _, err := ctx.Call("server", "fn"); err != nil {
						tb.Errorf("call: %v", err)
						return nil
					}
				}
				cycles = ctx.Now() - start
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	runImage(tb, img, arm)
	return cycles
}

// BenchmarkFig6a_LibraryCall measures a shared-library call through its
// sentry, for contrast with full compartment calls.
func BenchmarkFig6a_LibraryCall(b *testing.B) {
	b.ReportMetric(float64(libCallCycles(b, b.N, nil))/float64(b.N), "simcycles/call")
}

// libCallCycles returns the simulated cycles of n shared-library calls.
func libCallCycles(tb testing.TB, n int, arm func(*core.System)) uint64 {
	var cycles uint64
	img := core.NewImage("fig6a-lib")
	img.AddLibrary(&firmware.Library{
		Name: "mathlib", CodeSize: 64,
		Funcs: []*firmware.Export{{Name: "id", Entry: func(ctx api.Context, args []api.Value) []api.Value {
			return args
		}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportLib, Target: "mathlib", Entry: "id"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				start := ctx.Now()
				for i := 0; i < n; i++ {
					ctx.LibCall("mathlib", "id", api.W(7))
				}
				cycles = ctx.Now() - start
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	runImage(tb, img, arm)
	return cycles
}

// BenchmarkFig6a_InterruptLatency reproduces the paper's interrupt-latency
// measurement: a high-priority thread requests a revoker interrupt and
// waits on its futex; a low-priority thread continuously records the
// current timestamp; the latency is the gap between the last low-priority
// timestamp and the high-priority thread running again. Fig. 6a: 1028
// cycles on average.
func BenchmarkFig6a_InterruptLatency(b *testing.B) {
	per := float64(irqCycles(b, b.N, nil)) / float64(b.N)
	b.ReportMetric(per, "simcycles/irq")
	printOnce("fig6a-irq", fmt.Sprintf(
		"\nFig. 6a — interrupt latency: %.1f cycles (paper: 1028, typical RTOS range 500-1500)\n", per))
}

// irqCycles returns the summed wake-up latency of n revoker interrupts.
func irqCycles(tb testing.TB, n int, arm func(*core.System)) uint64 {
	var total uint64
	var lowStamp uint64
	benchDone := false

	// A small SRAM keeps the revocation sweep (and thus each iteration)
	// short; the latency path itself is size-independent.
	img := core.NewImage("fig6a-irq")
	img.SRAM = 32 * 1024
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 256, DataSize: 16,
		Imports: append(sched.Imports(),
			firmware.Import{Kind: firmware.ImportMMIO, Target: firmware.DeviceRevoker}),
		Exports: []*firmware.Export{
			{Name: "high", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					defer func() { benchDone = true }()
					rets, err := ctx.Call(sched.Name, sched.EntryIRQFutex, api.W(uint32(hw.IRQRevoker)))
					if err != nil || api.ErrnoOf(rets) != api.OK {
						tb.Error("irq_futex failed")
						return nil
					}
					word := rets[1].Cap
					mmio := ctx.MMIO(firmware.DeviceRevoker)
					for i := 0; i < n; i++ {
						seen := ctx.Load32(word)
						// 1) ask the revoker for an interrupt,
						ctx.Store32(mmio.WithAddress(hw.RevokerBase+hw.RevokerGo), 1)
						// 2) wait on its interrupt futex.
						rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
							api.C(word), api.W(seen), api.W(0))
						if err != nil || api.ErrnoOf(rets) != api.OK {
							tb.Error("futex_wait failed")
							return nil
						}
						// 4) awake: the latency is now minus the low-prio
						// thread's last timestamp.
						total += ctx.Now() - lowStamp
					}
					return nil
				}},
			{Name: "low", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					// 3) constantly record the current timestamp.
					for !benchDone {
						lowStamp = ctx.Now()
						ctx.Work(8)
					}
					return nil
				}},
		},
	})
	img.AddThread(&firmware.Thread{Name: "high", Compartment: "bench", Entry: "high",
		Priority: 9, StackSize: 4096, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "low", Compartment: "bench", Entry: "low",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	runImage(tb, img, arm)
	return total
}

// BenchmarkFig6b_AllocatorThroughput sweeps allocation sizes and reports
// sustained allocator throughput, reproducing Fig. 6b's regimes: call-
// dominated growth below 32 KiB, the revoker bottleneck above, and the
// pathological two-object and one-object plateaus past 80 and 112 KiB.
func BenchmarkFig6b_AllocatorThroughput(b *testing.B) {
	printOnce("fig6b-head", "\nFig. 6b — sustained allocation rate vs size (paper: ~5 MiB/s at >1 KiB,\n"+
		"rising to a peak, then revoker-bound decline past 32 KiB):\n")
	for _, size := range fig6bSizes {
		size := size
		b.Run(fmt.Sprintf("size_%dB", size), func(b *testing.B) {
			var cycles, bytes uint64
			for rep := 0; rep < b.N; rep++ {
				c, n := allocCycles(b, size, nil)
				cycles += c
				bytes += n
			}
			secs := float64(cycles) / float64(hw.DefaultHz)
			mibps := float64(bytes) / (1 << 20) / secs
			b.ReportMetric(mibps, "sim-MiB/s")
			b.ReportMetric(float64(cycles)/float64(bytes)*float64(size), "simcycles/alloc")
			printOnce(fmt.Sprintf("fig6b-%d", size),
				fmt.Sprintf("  %8d B  %8.2f MiB/s\n", size, mibps))
		})
	}
}

// fig6bSizes are the allocation sizes of the Fig. 6b sweep.
var fig6bSizes = []uint32{
	16, 64, 256, 1024, 4096, 16384, 32768, 49152, 65536, 98304, 114688,
}

// allocCycles allocates, touches and frees objects of one size until 8x
// the heap has been allocated (§5.3.2), returning the simulated cycles
// and the bytes allocated.
func allocCycles(tb testing.TB, size uint32, arm func(*core.System)) (cycles, bytes uint64) {
	img := core.NewImage("fig6b")
	heapQuota := uint32(230 * 1024)
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 256, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: heapQuota}},
		Imports:   alloc.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				cl := alloc.Client{}
				heap := uint32(220 * 1024)
				iters := int(heap) * 8 / int(size)
				start := ctx.Now()
				for i := 0; i < iters; i++ {
					obj, errno := cl.Malloc(ctx, size)
					if errno != api.OK {
						tb.Errorf("malloc(%d) #%d: %v", size, i, errno)
						return nil
					}
					ctx.Store32(obj, uint32(i)) // touch it
					if e := cl.Free(ctx, obj); e != api.OK {
						tb.Errorf("free: %v", e)
						return nil
					}
				}
				cycles = ctx.Now() - start
				bytes = uint64(iters) * uint64(size)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	runImage(tb, img, arm)
	return cycles, bytes
}
