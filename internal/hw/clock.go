// Package hw simulates the CHERIoT core's non-memory hardware: the cycle
// clock, trap codes, the interrupt controller, the background revoker, and
// the handful of memory-mapped devices the RTOS drives (timer, revoker
// control, UART, LED bank, network adaptor).
//
// All time in the simulation is this package's cycle counter. Calibrated
// cycle costs for kernel operations live in costs.go, with the
// paper-reported numbers cited next to each constant; benchmarks report
// simulated cycles, not host time.
package hw

import "time"

// DefaultHz matches the paper's evaluation platform: an Arty A7-100T FPGA
// clocked at 33 MHz (§5.3).
const DefaultHz = 33_000_000

// Clock is the deterministic cycle counter of the simulated core. It only
// counts: attributing cycles to compartments, threads and profile frames
// is the switcher's job, done at domain transitions from the difference
// between two readings (see the switcher's probe).
type Clock struct {
	cycles uint64
	hz     uint64
}

// NewClock returns a clock at cycle zero ticking at hz.
func NewClock(hz uint64) *Clock {
	if hz == 0 {
		hz = DefaultHz
	}
	return &Clock{hz: hz}
}

// Cycles returns the number of cycles elapsed since boot.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Hz returns the clock frequency.
func (c *Clock) Hz() uint64 { return c.hz }

// Advance moves the clock forward by n cycles.
func (c *Clock) Advance(n uint64) { c.cycles += n }

// Elapsed converts the current cycle count to wall-clock time at the
// simulated frequency.
func (c *Clock) Elapsed() time.Duration {
	return time.Duration(c.cycles * uint64(time.Second) / c.hz)
}

// CyclesIn converts a duration to cycles at the simulated frequency.
func (c *Clock) CyclesIn(d time.Duration) uint64 {
	return uint64(d) * c.hz / uint64(time.Second)
}
