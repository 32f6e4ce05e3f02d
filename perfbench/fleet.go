package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/ota"
	"github.com/cheriot-go/cheriot/internal/prof"
)

// workers is the fleet worker-pool width: two, or fewer on a smaller
// host. The Summary is identical at any width.
func workers() int {
	return min(2, runtime.NumCPU())
}

// ingestConfig is fleet-ingest: several hundred Go-firmware devices on one
// cloud shard, each publishing steadily to its own topic. Every publish
// scans every session on the shard, so host time grows with the square
// of the fleet; nothing is instrumented, no faults, no fan-out. A device's
// TLS connect takes about 10 simulated seconds, so the 24 s horizon
// leaves most of the run to steady publishing.
func ingestConfig(seed uint64) fleet.Config {
	return fleet.Config{
		Devices:       320,
		Shards:        workers(),
		CloudShards:   1,
		Duration:      24 * time.Second,
		PublishRate:   25,
		ArrivalSpread: 2 * time.Second,
		Seed:          seed,
		// The benchmark runs the same audit itself, timed as set-up.
		SkipAudit: true,
	}
}

// opsConfig is fleet-ops: 256 devices over 4 cloud shards with a cloud
// fan-out and per-device commands every simulated second, a staged OTA
// rollout to 100% (mid-run forks, checkpoint barriers, reconnects), and
// fleetobs, the profiler and the flight recorder armed.
func opsConfig(seed uint64) fleet.Config {
	return fleet.Config{
		Devices:        256,
		Shards:         workers(),
		CloudShards:    4,
		Duration:       60 * time.Second,
		PublishRate:    2,
		ArrivalSpread:  time.Second,
		Seed:           seed,
		FanoutEvery:    time.Second,
		FanoutCommands: true,
		Obs:            true,
		Prof:           true,
		FlightRecorder: 512,
		Rollout: &ota.Plan{
			StartAt:        13 * time.Second,
			CheckEvery:     time.Second,
			Rings:          []float64{5, 25, 100},
			BringUp:        12 * time.Second,
			Bake:           2 * time.Second,
			CrashThreshold: 2,
		},
		SkipAudit: true,
	}
}

// setArmed turns the instrumentation layers on or off. A rollout keeps
// its flight recorders either way (fleet.Run arms them: the rollback
// trigger reads their crash reports).
func setArmed(cfg *fleet.Config, on bool) {
	cfg.Obs, cfg.Prof = on, on
	cfg.FlightRecorder = 0
	if on {
		cfg.FlightRecorder = 512
	}
}

func ingestRep(o repOpts) repResult {
	cfg := ingestConfig(o.seed)
	if o.counterpart {
		setArmed(&cfg, true)
	}
	return fleetRep(o, cfg, 1)
}

func opsRep(o repOpts) repResult {
	cfg := opsConfig(o.seed)
	if o.counterpart {
		setArmed(&cfg, false)
	}
	return fleetRep(o, cfg, 2)
}

// fleetRep runs the audit gate and one fleet, then checks and measures
// the result. shapes is the number of firmware shapes the fleet boots
// (one cold boot each).
func fleetRep(o repOpts, cfg fleet.Config, shapes int) repResult {
	var r repResult
	traced := o.tr != nil
	if traced {
		cfg.HostProf, cfg.Prof = true, true
	}
	t0 := time.Now()
	as := o.tr.begin(o.root, "fleet.Audit", "audit")
	audit, err := fleet.Audit(cfg)
	as.end(1, 0)
	auditWall := time.Since(t0)
	r.attempted++
	if err == nil && !audit.Passed() {
		err = fmt.Errorf("policy violations: %v", audit.Failures())
	}
	if err != nil {
		r.fail("audit: %v", err)
		return r
	}

	fs := o.tr.begin(o.root, "fleet.Run", "fleet")
	runStart := time.Now()
	res, err := fleet.Run(cfg)
	fs.end(uint64(cfg.Devices), 0)
	r.attempted++
	if err != nil {
		r.fail("fleet.Run: %v", err)
		return r
	}
	r.setup = auditWall + res.BootWall
	r.run = res.RunWall
	s := res.Summary
	r.simSeconds = float64(s.Devices) * s.SimSeconds

	// A failed MQTT connect attempt is a failed operation even when the
	// device's retry succeeds. It counts in failed without failing a
	// check: the outputs the checks cover can still be right.
	r.attempted += uint64(s.Devices) + s.Connects + s.ConnectFailures + s.Publishes + s.PublishErrors
	r.failed += uint64(s.DeviceErrors) + s.SetupFailures + s.ConnectFailures + s.PublishErrors +
		uint64(max(s.CapabilityFaults, 0))
	r.check("cycle attribution exact (CycleSumExact)", s.CycleSumExact, "CycleSumExact is false")
	r.check("every device healthy", s.DevicesOK == s.Devices && s.DeviceErrors == 0,
		"%d of %d devices ok", s.DevicesOK, s.Devices)
	r.check("zero capability faults", s.CapabilityFaults == 0, "%d capability faults", s.CapabilityFaults)
	r.check("zero setup failures and publish errors", s.SetupFailures == 0 && s.PublishErrors == 0,
		"%d setup failures, %d publish errors", s.SetupFailures, s.PublishErrors)
	r.check("devices published", s.Publishes > 0, "no publishes")
	cold := -1
	if res.Snapshot != nil {
		cold = res.Snapshot.ColdBoots
	}
	r.check("one cold boot per firmware shape", cold == shapes, "%d cold boots, want %d", cold, shapes)
	r.sim = map[string]float64{"sim_publish_p99_ms": s.PublishP99Ms}
	if cfg.Rollout != nil {
		ro := s.Rollout
		ok := ro != nil && ro.Terminal == ota.StateComplete && ro.OnNew == s.Devices && len(ro.Rings) > 0
		r.check("rollout complete with every device on the new image", ok, "rollout %+v", ro)
		if ok {
			r.sim["ota_complete_sim_s"] = float64(ro.CompleteAtCycle-ro.Rings[0].OfferedAtCycle) / hw.DefaultHz
		}
	}
	if cfg.FanoutEvery > 0 {
		r.check("fan-out delivered", s.FanoutDelivered > 0, "no fan-out landed")
	}

	// The digest covers every simulated statistic. The worker count is
	// a host setting (lockstep ≡ parallel), and the cycle profile is
	// covered by CycleSumExact, so that a traced repetition, which arms
	// the profiler, must match an untraced one.
	d := s
	d.Shards, d.Lockstep, d.Profile = 0, false, nil
	r.digest = digest(d)

	r.layers = fleetLayers(res)
	if traced {
		r.profile = s.Profile
		synthFleetSpans(o.tr, fs, res, runStart)
	}
	return r
}

// fleetLayers derives the per-layer metrics a fleet result carries.
func fleetLayers(res *fleet.Result) map[string]float64 {
	s := res.Summary
	m := map[string]float64{
		"broker.publishes":          float64(s.BrokerPublishes),
		"broker.connects":           float64(s.BrokerConnects),
		"broker.superseded":         float64(s.BrokerSuperseded),
		"netsim.frames_up":          float64(s.FramesFromDevices),
		"netsim.frames_down":        float64(s.FramesToDevices),
		"netsim.max_inbox_depth":    float64(res.MaxInboxDepth),
		"cloud.notifications":       float64(s.NotificationsReceived),
		"netstack.connect_failures": float64(s.ConnectFailures),
		"flightrec.crash_reports":   float64(s.CrashReports),
		"fleetobs.spans":            float64(len(res.Spans)),
	}
	var forwards int
	for _, sh := range s.BrokerShards {
		forwards += sh.Forwarded
	}
	m["cloud.forwards"] = float64(forwards)
	if n := s.FanoutDelivered + s.FanoutMissed; n > 0 {
		m["cloud.fanout_delivered_frac"] = float64(s.FanoutDelivered) / float64(n)
	}
	if s.Rollout != nil {
		m["ota.offers_delivered"] = float64(s.Rollout.OffersDelivered)
	}
	if st := res.Snapshot; st != nil {
		m["snapshot.cold_boots"] = float64(st.ColdBoots)
		m["snapshot.forks"] = float64(st.Forks)
	}
	if hp := res.HostProf; hp != nil {
		cold, fork := hp.Phase("boot/cold"), hp.Phase("boot/fork")
		step, merge := hp.Phase("step"), hp.Phase("merge")
		if cold.Calls > 0 {
			m["snapshot.cold_boot_ms"] = cold.WallSec / float64(cold.Calls) * 1e3
		}
		if fork.Calls > 0 {
			m["snapshot.fork_us"] = fork.WallSec / float64(fork.Calls) * 1e6
		}
		if st := res.Snapshot; st != nil {
			m["ota.midrun_forks"] = float64(uint64(st.Forks) - fork.Calls)
		}
		m["fleet.step_s"] = step.WallSec
		if s.Publishes > 0 {
			m["fleet.step_us_per_publish"] = step.WallSec / float64(s.Publishes) * 1e6
		}
		if wall := res.RunWall.Seconds(); wall > 0 && hp.Workers > 0 {
			m["fleet.worker_busy_frac"] = step.WallSec / (float64(hp.Workers) * wall)
		}
		m["fleet.merge_s"] = merge.WallSec
	}
	return m
}

// synthFleetSpans lays the HostProf phases out as child spans of the
// fleet.Run span. HostProf records per-phase durations summed over
// workers, not start times, so the children are placed back to back from
// the start of fleet.Run: boot (with the cold boot and the forks inside
// it, the forks at their per-worker mean), then the step phase, and the
// merge at the end. The pump phase is an extrapolation from a 1-in-64
// sample and gets no span.
func synthFleetSpans(tr *tracer, run *span, res *fleet.Result, start time.Time) {
	hp := res.HostProf
	if hp == nil || run == nil {
		return
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	workers := float64(max(hp.Workers, 1))
	boot := tr.synth(run, "fleet.boot", "fleet", start, res.BootWall, uint64(res.Summary.Devices))
	cold, fork := hp.Phase("boot/cold"), hp.Phase("boot/fork")
	coldWall := sec(cold.MaxSec)
	tr.synth(boot, "snapshot.cold_boot", "snapshot", start, coldWall, cold.Calls)
	tr.synth(boot, "snapshot.fork", "snapshot", start.Add(coldWall), sec(fork.WallSec/workers), fork.Calls)
	tr.synth(run, "fleet.step", "fleet", start.Add(res.BootWall), res.RunWall, res.Summary.Publishes)
	merge := hp.Phase("merge")
	end := start.Add(time.Duration(run.EndNs-run.StartNs) * time.Nanosecond)
	tr.synth(run, "fleet.merge", "fleet", end.Add(-sec(merge.WallSec)), sec(merge.WallSec), merge.Calls)
}

// profileShares splits a merged cycle profile into the shares the
// per-layer table tracks.
func profileShares(p *prof.Profile) map[string]float64 {
	if p == nil || p.TotalCycles == 0 {
		return nil
	}
	var tls, idle, sw, sch uint64
	for _, f := range p.Frames {
		leaf := f.Stack[strings.LastIndexByte(f.Stack, ';')+1:]
		switch {
		case leaf == "<idle>":
			idle += f.Self
		case leaf == "<switcher>":
			sw += f.Self
		case leaf == "<sched>":
			sch += f.Self
		}
		if strings.Contains(f.Stack, "tls.tls_connect") {
			tls += f.Self
		}
	}
	total := float64(p.TotalCycles)
	return map[string]float64{
		"sim.tls_connect_share": float64(tls) / total,
		"sim.idle_share":        float64(idle) / total,
		"sim.switcher_share":    float64(sw) / total,
		"sim.sched_share":       float64(sch) / total,
	}
}

// spanLayerMetrics derives the host per-op metrics from the span table.
func spanLayerMetrics(rows []opRow) map[string]float64 {
	m := map[string]float64{}
	set := func(metric, spanName string, f func(opRow) float64) {
		if r := row(rows, spanName); r.Ops > 0 {
			m[metric] = f(r)
		}
	}
	ns := opRow.nsPerOp
	ms := func(r opRow) float64 { return r.nsPerOp() / 1e6 }
	set("switcher.call_ns", "switcher.call/empty", ns)
	set("switcher.call_allocs", "switcher.call/empty", opRow.allocsPerOp)
	set("switcher.call_sim_cycles", "switcher.call/empty", opRow.cyclesPerOp)
	set("switcher.lib_call_ns", "switcher.lib_call", ns)
	set("sched.irq_wake_ns", "sched.irq_wait_wake", ns)
	set("sched.irq_sim_cycles", "sched.irq_wait_wake", opRow.cyclesPerOp)
	set("alloc.small_pair_ns", "alloc.pair/16B", ns)
	set("alloc.large_pair_ns", "alloc.pair/114688B", ns)
	set("alloc.pair_allocs", "alloc.pair/16B", opRow.allocsPerOp)
	set("alloc.pair_sim_cycles", "alloc.pair/16B", opRow.cyclesPerOp)
	set("mem.word_ns", "mem.word", ns)
	set("mem.cap_load_ns", "mem.cap_load", ns)
	set("cap.derive_ns", "cap.derive", ns)
	set("core.boot_ms", "core.Boot", ms)
	set("iotapp.case_study_ms", "iotapp.Run", ms)
	return m
}
