// Sharded-cloud benchmark: fleet publish throughput across broker shard
// counts and fleet sizes, plus the broker's deterministic delivery gate.
//
// Every publish reaches its subscribers through one lookup in the topic
// owner's index, so its cost is the topic's subscriber count whatever the
// fleet size or shard count. The gate asserts exactly that from the
// brokers' own counter of index entries visited; the wall-clock columns
// are recorded for reference only. The simulated outcome (publish counts,
// cycle attribution) is identical across shard counts.
//
// TestBenchCloudJSON records the grid plus the acceptance pair (1 vs 8
// shards at the largest fleet) into BENCH_cloud.json under -update.
package cheriot_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
)

// cloudBenchConfig is the scaling workload: every device TLS-connects
// (~10 simulated seconds) and then publishes at 25 Hz, so the broker-side
// scan dominates at large fleet sizes.
func cloudBenchConfig(devices, cloudShards int, rate float64, spread time.Duration) fleet.Config {
	return fleet.Config{
		Devices:       devices,
		CloudShards:   cloudShards,
		Duration:      14 * time.Second,
		PublishRate:   rate,
		ArrivalSpread: spread,
		Seed:          1,
		SkipAudit:     true,
	}
}

// cloudBenchRun runs one cell of the grid and returns the result plus
// total wall time (boot + run). Collecting the previous fleet's garbage
// first keeps cells comparable: without it, heap state inherited from
// earlier cells skews later wall clocks by tens of percent.
func cloudBenchRun(tb testing.TB, cfg fleet.Config) (*fleet.Result, time.Duration) {
	tb.Helper()
	runtime.GC()
	debug.FreeOSMemory()
	res, err := fleet.Run(cfg)
	if err != nil {
		tb.Fatalf("fleet.Run: %v", err)
	}
	s := res.Summary
	if s.DeviceErrors != 0 || s.SetupFailures != 0 || s.CapabilityFaults != 0 {
		tb.Fatalf("unhealthy fleet: %d errors, %d setup failures, %d capability faults",
			s.DeviceErrors, s.SetupFailures, s.CapabilityFaults)
	}
	return res, res.BootWall + res.RunWall
}

// TestBenchCloudJSON sweeps shards x devices, checks the probe gate at
// the largest fleet on 1 and 8 shards, and records BENCH_cloud.json under -update.
// Skipped under the race detector: the grid's wall-clock numbers would be
// meaningless and the large fleets slow.
func TestBenchCloudJSON(t *testing.T) {
	if raceEnabled {
		t.Skip("benchmark grid skipped under -race (wall clock is meaningless)")
	}

	type row struct {
		Devices             int     `json:"devices"`
		Shards              int     `json:"shards"`
		Publishes           uint64  `json:"publishes"`
		IndexProbes         int     `json:"index_probes"`
		WallSec             float64 `json:"wall_sec"`
		PublishesPerWallSec float64 `json:"publishes_per_wall_sec"`
	}

	// The probe gate. Each device subscribes only to its own topic, so the
	// index holds exactly one entry per published topic — the publisher,
	// which the lookup visits and skips. Summed over shards, the entries
	// visited must equal the broker publishes: a delivery path that walked
	// the session table would visit every session on the shard instead.
	const accDevices = 2048
	accCfg := func(shards int) fleet.Config {
		return cloudBenchConfig(accDevices, shards, 40, 500*time.Millisecond)
	}
	acc := make(map[int]row)
	for _, shards := range []int{1, 8} {
		res, wall := cloudBenchRun(t, accCfg(shards))
		s := res.Summary
		if res.IndexProbes != s.BrokerPublishes {
			t.Errorf("%d shards: %d index entries visited for %d broker publishes, want one per publish",
				shards, res.IndexProbes, s.BrokerPublishes)
		}
		acc[shards] = row{Devices: accDevices, Shards: shards, Publishes: s.Publishes,
			IndexProbes: res.IndexProbes, WallSec: wall.Seconds(),
			PublishesPerWallSec: float64(s.Publishes) / wall.Seconds()}
		t.Logf("acceptance %d devices, %d shards: %.2fs (%.1f pub/s), %d publishes, %d index probes",
			accDevices, shards, wall.Seconds(), acc[shards].PublishesPerWallSec, s.BrokerPublishes, res.IndexProbes)
	}
	if acc[1].Publishes != acc[8].Publishes {
		t.Errorf("acceptance publishes differ: %d (1 shard) vs %d (8 shards)",
			acc[1].Publishes, acc[8].Publishes)
	}

	var rows []row
	for _, devices := range []int{64, 256, 1024} {
		var oneShardPublishes uint64
		for _, shards := range []int{1, 2, 4, 8} {
			res, wall := cloudBenchRun(t, cloudBenchConfig(devices, shards, 25, time.Second))
			r := row{
				Devices:             devices,
				Shards:              shards,
				Publishes:           res.Summary.Publishes,
				IndexProbes:         res.IndexProbes,
				WallSec:             wall.Seconds(),
				PublishesPerWallSec: float64(res.Summary.Publishes) / wall.Seconds(),
			}
			if shards == 1 {
				oneShardPublishes = r.Publishes
			}
			rows = append(rows, r)
			t.Logf("devices %4d, shards %d: %6.2fs wall, %8.1f publishes/sec",
				devices, shards, r.WallSec, r.PublishesPerWallSec)
			// The simulated outcome must not depend on the shard count.
			if r.Publishes != oneShardPublishes {
				t.Errorf("devices %d, shards %d: %d publishes, want %d (shard-count independent)",
					devices, shards, r.Publishes, oneShardPublishes)
			}
		}
	}

	report := map[string]any{
		"benchmark": "sharded cloud control plane: fleet publish throughput vs broker shard count",
		"workload": fmt.Sprintf("14 sim-seconds, 25 publishes/sim-second/device, 1s arrival spread"+
			" (acceptance pair: %d devices, 40/sim-second, 500ms spread)", accDevices),
		"num_cpu": runtime.NumCPU(),
		"rows":    rows,
		"acceptance": map[string]any{
			"devices":              accDevices,
			"publishes":            acc[1].Publishes,
			"one_shard_probes":     acc[1].IndexProbes,
			"eight_shard_probes":   acc[8].IndexProbes,
			"one_shard_wall_sec":   acc[1].WallSec,
			"eight_shard_wall_sec": acc[8].WallSec,
		},
		"note": "wall-clock figures are machine-dependent; simulated results are identical across " +
			"shard counts. The gate is index_probes: every publish is routed by one lookup in the " +
			"topic owner's index and visits only that topic's subscribers (here the publisher alone), " +
			"so probes equal broker publishes at every shard count. An earlier version of this " +
			"benchmark reported a 1-vs-8-shard wall-clock speedup of 2.6x-7x at 2048 devices; that " +
			"speedup measured the broker's former O(sessions-per-shard) scan of every session per " +
			"publish, which sharding divided and the index removes, so little of it remains. " +
			"Lockstep vs parallel byte-identical summaries under cloud fan-out are asserted by " +
			"TestFleetFanoutDeterminism in internal/fleet.",
	}
	recordBench(t, "BENCH_cloud.json", report)
}
