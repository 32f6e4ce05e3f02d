package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// benchFile is BENCHMARK.json, the one definition of the workload names
// and of each metric's name, unit, direction and (end-to-end) bound.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadBench reads and parses the benchmark definition at path.
func loadBench(path string) (benchFile, error) {
	var bench benchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bench, err
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return bench, fmt.Errorf("%s: %w", path, err)
	}
	return bench, nil
}

// unit returns the unit BENCHMARK.json gives a metric, or the unit of a
// simulated-clock metric, which BENCHMARK.json does not list.
func (b benchFile) unit(name string) string {
	for _, set := range [][]benchMetric{b.EndToEnd, b.PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	for _, d := range simMetrics {
		if d.Name == name {
			return d.Unit
		}
	}
	return "count"
}

// simMetric is an end-to-end metric on the simulated clock (or the
// failure share).
type simMetric struct {
	Name, Unit, Doc string
}

// simMetrics are deterministic for a seed, and several exist only on
// some workloads, so they are printed in the run's table and kept in its
// result file rather than in the last line (nor in BENCHMARK.json); the
// digests cover them.
var simMetrics = []simMetric{
	{"failed_frac", "frac", "failed operations over attempted operations"},
	{"sim_publish_p99_ms", "sim_ms", "p99 device publish latency in simulated ms (fleet workloads)"},
	{"ota_complete_sim_s", "sim_s", "simulated seconds from the first update offer to a complete rollout (fleet-ops)"},
	{"paper_err_pct", "%", "mean absolute relative error against every cited paper number (paper-device)"},
	{"paper_heldout_err_pct", "%", "the same error over the Fig. 7 rows held back from calibration (paper-device)"},
}

// metricDocs explains each metric BENCHMARK.json names, for the report.
// A workload that does not exercise a layer reports 0 for its per-layer
// metrics; the README's map says which workload carries each.
var metricDocs = map[string]string{
	"setup_s":      "host time from workload start to the first simulated step, scaled by host speed (median repetition)",
	"run_s":        "host time of the simulated phase, scaled by host speed (median repetition)",
	"realtime_x":   "simulated device-seconds per host second of the scaled run_s",
	"peak_rss_mib": "process VmHWM",

	"switcher.call_ns":            "host ns per empty compartment call",
	"switcher.call_allocs":        "Go heap allocations per empty compartment call",
	"switcher.lib_call_ns":        "host ns per shared-library call",
	"switcher.call_sim_cycles":    "simulated cycles per empty compartment call",
	"sched.irq_wake_ns":           "host ns per revoker-IRQ futex wait/wake round",
	"sched.irq_sim_cycles":        "simulated interrupt latency per round",
	"alloc.small_pair_ns":         "host ns per 16 B malloc/free pair",
	"alloc.large_pair_ns":         "host ns per 112 KiB malloc/free pair (revoker-bound)",
	"alloc.pair_allocs":           "Go heap allocations per 16 B malloc/free pair",
	"alloc.pair_sim_cycles":       "simulated cycles per 16 B malloc/free pair",
	"alloc.denied":                "allocations the allocator refused",
	"mem.word_ns":                 "host ns per Load32+Store32 pair",
	"mem.cap_load_ns":             "host ns per capability load through the load filter",
	"cap.derive_ns":               "host ns per capability bounds derivation",
	"core.boot_ms":                "host ms per core.Boot",
	"iotapp.case_study_ms":        "host ms per Fig. 7 case-study run",
	"netstack.reboot_sim_ms":      "TCP/IP micro-reboot in simulated ms",
	"netstack.connect_failures":   "failed MQTT connect attempts (each also counted in failed)",
	"snapshot.cold_boot_ms":       "host ms per template cold boot",
	"snapshot.fork_us":            "host us per boot-time snapshot fork",
	"snapshot.cold_boots":         "template cold boots",
	"snapshot.forks":              "systems forked from templates",
	"fleet.step_s":                "step-phase host seconds summed over workers",
	"fleet.step_us_per_publish":   "step-phase host us per device publish",
	"fleet.worker_busy_frac":      "step-phase worker time over workers x run wall",
	"fleet.merge_s":               "host seconds of the summary merge",
	"broker.publishes":            "publishes the broker shards accepted",
	"broker.connects":             "broker connects",
	"broker.superseded":           "sessions dropped by client takeover",
	"netsim.frames_up":            "frames from devices",
	"netsim.frames_down":          "frames to devices",
	"netsim.max_inbox_depth":      "deepest World inbox seen at pump time",
	"cloud.forwards":              "cross-shard deliveries",
	"cloud.notifications":         "cloud publishes the device apps drained",
	"cloud.fanout_delivered_frac": "fan-out events that landed on a live session",
	"ota.midrun_forks":            "snapshot forks made during the run (rollout swaps)",
	"ota.offers_delivered":        "update offers delivered over MQTT",
	"instr.overhead_ratio":        "run_s with telemetry, profiler, flight recorder and fleetobs armed over run_s unarmed",
	"trace.overhead_ratio":        "run_s of the traced repetitions over run_s of the untraced ones",
	"fleetobs.spans":              "fleetobs message spans",
	"prof.frames":                 "frames in the merged cycle profile",
	"flightrec.crash_reports":     "flight-recorder crash reports",
	"sim.tls_connect_share":       "share of simulated cycles under tls_connect",
	"sim.idle_share":              "share of simulated cycles idle",
	"sim.switcher_share":          "share of simulated cycles in the switcher",
	"sim.sched_share":             "share of simulated cycles in the scheduler",
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output-correctness check, aggregated over repetitions.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one run writes to its result file; the comparator
// reads sets of them.
type result struct {
	Kind        string                 `json:"kind"`
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       bool                   `json:"trace"`
	StartedUnix int64                  `json:"started_unix_ns"`
	GoVersion   string                 `json:"go_version"`
	CPUs        int                    `json:"cpus"`
	Correct     bool                   `json:"correct"`
	Attempted   uint64                 `json:"attempted"`
	Failed      uint64                 `json:"failed"`
	Reps        int                    `json:"reps"`
	Digest      string                 `json:"sim_digest"`
	PaperDigest string                 `json:"paper_digest,omitempty"`
	Checks      []check                `json:"checks"`
	Metrics     map[string]metricValue `json:"metrics"`
	Samples     map[string][]float64   `json:"samples,omitempty"`
	Notes       []string               `json:"notes,omitempty"`
}

const resultKind = "perfbench-result"

// finalCounts turns raw operation counts into what the last line
// reports. A run that attempted nothing, or that failed a correctness
// check, counts as wholly failed.
func finalCounts(attempted, failed uint64, correct bool) (a, f uint64, frac float64) {
	if attempted == 0 {
		return 1, 1, 1
	}
	if !correct {
		return attempted, attempted, 1
	}
	return attempted, failed, float64(failed) / float64(attempted)
}

// digest hashes v's JSON encoding.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
