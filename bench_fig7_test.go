// Benchmark regenerating Fig. 7: the full-system IoT case study (§5.3.3).
package cheriot_test

import (
	"fmt"
	"testing"

	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/iotapp"
)

// caseStudy runs the Fig. 7 scenario once, with arm attaching
// instruments to the booted system (nil: none).
func caseStudy(tb testing.TB, arm func(*core.System)) *iotapp.Result {
	app, err := iotapp.Build()
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	defer app.Shutdown()
	if arm != nil {
		arm(app.Sys)
	}
	res, err := app.Run()
	if err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return res
}

// fig7 is the deterministic part of the Fig. 7 report.
type fig7 struct {
	Compartments  int         `json:"compartments"`
	TraceSeconds  float64     `json:"trace_seconds"`
	AvgLoadPct    float64     `json:"avg_load_pct"`
	TCPIPRebootMs float64     `json:"tcpip_reboot_ms"`
	Notifications int32       `json:"notifications"`
	Phases        []fig7Phase `json:"phases"`
	LoadPct       []float64   `json:"load_pct_per_second"`
}

// fig7Phase is one scenario phase and the cycle it began at.
type fig7Phase struct {
	Name  string `json:"name"`
	Cycle uint64 `json:"cycle"`
}

// fig7Numbers runs the case study and keeps the numbers Fig. 7 reports.
func fig7Numbers(tb testing.TB, arm func(*core.System)) fig7 {
	res := caseStudy(tb, arm)
	f := fig7{
		Compartments:  res.Compartments,
		TraceSeconds:  res.TotalSeconds,
		AvgLoadPct:    res.AvgLoadPct,
		TCPIPRebootMs: res.RebootMs,
		Notifications: res.Notifications,
	}
	for _, p := range res.Phases {
		f.Phases = append(f.Phases, fig7Phase{p.Name, p.Cycle})
	}
	for _, s := range res.Samples {
		f.LoadPct = append(f.LoadPct, s.LoadPct)
	}
	return f
}

// BenchmarkFig7_CaseStudy runs the whole §5.3.3 deployment — JavaScript
// app, MQTT over TLS over the compartmentalized TCP/IP stack, 13
// compartments — through its Fig. 7 scenario: setup, NTP sync, connect
// and subscribe, steady state, a ping of death micro-rebooting the TCP/IP
// compartment, recovery, and a delivered notification.
func BenchmarkFig7_CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := caseStudy(b, nil)
		b.ReportMetric(res.AvgLoadPct, "avg-load-%")
		b.ReportMetric(res.RebootMs, "reboot-ms")
		b.ReportMetric(res.TotalSeconds, "sim-seconds")
		if i > 0 {
			continue
		}
		out := "\nFig. 7 — full-system CPU load for the IoT deployment (paper in parens):\n"
		out += fmt.Sprintf("  compartments: %d (13)   memory: %.0f KB code+data (243 KB total incl. heap)\n",
			res.Compartments,
			float64(res.Footprint.CodeBytes+res.Footprint.DataBytes)/1024)
		out += fmt.Sprintf("  trace length: %.1f s (52 s)   average CPU load: %.1f%% (46.5%%)\n",
			res.TotalSeconds, res.AvgLoadPct)
		out += fmt.Sprintf("  TCP/IP micro-reboot: %.0f ms (270 ms)   notifications: %d\n",
			res.RebootMs, res.Notifications)
		out += "  phases:\n"
		for j, p := range res.Phases {
			sec := float64(p.Cycle) / float64(hw.DefaultHz)
			dur := ""
			if j+1 < len(res.Phases) {
				dur = fmt.Sprintf(" (%.1f s)", float64(res.Phases[j+1].Cycle-p.Cycle)/float64(hw.DefaultHz))
			}
			out += fmt.Sprintf("    t=%5.1fs %-12s%s\n", sec, p.Name, dur)
		}
		out += "  per-second load series:\n   "
		for _, s := range res.Samples {
			out += fmt.Sprintf(" %.0f", s.LoadPct)
		}
		out += "\n"
		printOnce("fig7", out)
	}
}
