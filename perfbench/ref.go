package main

import (
	"time"
)

// The host this benchmark runs on changes speed by up to 3x in phases
// that last from seconds to hours: other work shares its cores, and the
// process's own CPU time slows by the same factor, so neither wall nor
// CPU time taken inside one run can remove a slow phase that outlasts
// the run. The benchmark therefore times a fixed reference workload,
// which uses none of the simulator's code, right before and right after
// every repetition, and scales the repetition's host times by how much
// slower or faster than nominal the reference ran. A change to the
// simulator moves the workload and not the reference; a change in the
// host's speed moves both.

// refNominal sets the scale of the scaled host times: a scaled time is
// what the repetition would have taken had the reference run in
// refNominal. On the baseline host the reference took 10-13 ms.
const refNominal = 10 * time.Millisecond

// The reference workload's size: about refNominal on the baseline host,
// half in each part.
const (
	refSteps    = 150_000
	refHandoffs = 10_000
)

// refShare is the share of a repetition's raw time spent timing the
// reference on each side of the next one (the next one's own time is not
// known yet); refFirst is the time spent on each side of the first
// repetition; refMin is the fewest reference runs on each side.
const (
	refShare = 0.05
	refFirst = 250 * time.Millisecond
	refMin   = 2
)

// refEngine is the reference workload's state. Its two parts are the
// two kinds of host work the simulator does: a pointer chase through a
// seeded cyclic permutation with map updates, small heap allocations and
// byte copies, dispatched through an interface; and goroutine handoffs
// over unbuffered channels, the way the switcher hands the processor
// between its kernel and a simulated thread.
type refEngine struct {
	next []uint32
	m    map[uint32]uint64
	ring [][]byte
	src  [64]byte
	sink uint64
}

type refStepper interface{ step(i uint32) uint32 }

func newRefEngine() *refEngine {
	const n = 1 << 16
	r := newRNG(0x5eed, 1)
	p := r.perm(n)
	e := &refEngine{next: make([]uint32, n), m: make(map[uint32]uint64, 1<<12), ring: make([][]byte, 1024)}
	// One cycle through every slot: p[k] → p[k+1].
	for k := range p {
		e.next[p[k]] = uint32(p[(k+1)%n])
	}
	for i := range e.src {
		e.src[i] = byte(r.next())
	}
	return e
}

func (e *refEngine) step(i uint32) uint32 {
	j := e.next[i]
	e.m[j&(1<<12-1)] += uint64(i)
	if j&7 == 0 {
		b := make([]byte, 16+j&31)
		copy(b, e.src[:])
		e.ring[j&1023] = b
		e.sink += uint64(b[len(b)-1])
	}
	return j
}

// refTimes is one reference run's host time, part by part.
type refTimes struct{ chase, handoff time.Duration }

func (t refTimes) total() time.Duration { return t.chase + t.handoff }

// run does the fixed reference work once and returns its host times.
func (e *refEngine) run() refTimes {
	var s refStepper = e
	t0 := time.Now()
	i := uint32(0)
	for k := 0; k < refSteps; k++ {
		i = s.step(i)
	}
	e.sink += uint64(i)
	t1 := time.Now()
	e.sink += uint64(handoffs(refHandoffs))
	return refTimes{t1.Sub(t0), time.Since(t1)}
}

// handoffs passes a token n times from one goroutine to another and
// back, and waits for the other goroutine to end.
func handoffs(n int) int {
	to, back := make(chan int), make(chan int)
	go func() {
		for v := range to {
			back <- v + 1
		}
		close(back)
	}()
	v := 0
	for k := 0; k < n; k++ {
		to <- v
		v = <-back
	}
	close(to)
	<-back
	return v
}

// sample runs the reference at least refMin times and until budget is
// spent, appending each run's times to into.
func (e *refEngine) sample(budget time.Duration, into []refTimes) []refTimes {
	start := time.Now()
	for k := 0; k < refMin || time.Since(start) < budget; k++ {
		into = append(into, e.run())
	}
	return into
}

// medianOf returns the median of part over runs, in seconds.
func medianOf(runs []refTimes, part func(refTimes) time.Duration) float64 {
	xs := make([]float64, len(runs))
	for i, t := range runs {
		xs[i] = part(t).Seconds()
	}
	return median(xs)
}

// hostSpeed is the scale factor for one repetition: nominal over the
// median of the reference times taken around it. Below 1 the host ran
// slow, and the repetition's times are scaled down by as much.
func hostSpeed(around []refTimes) float64 {
	m := medianOf(around, refTimes.total)
	if m <= 0 {
		return 1
	}
	return refNominal.Seconds() / m
}
