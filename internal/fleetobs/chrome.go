package fleetobs

import (
	"fmt"
	"io"

	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Process/thread layout of the exported trace: the cloud is pid 0 with
// one thread per shard; each device is pid 1+index with one thread per
// device-side hop kind.
const (
	cloudPid   = 0
	devPidBase = 1
	tidPublish = 1
	tidDeliver = 2
	tidRecv    = 3
)

var deviceThreads = [...]string{tidPublish: "publish", tidDeliver: "deliver", tidRecv: "recv"}

// WriteChromeTrace exports spans in Chrome trace-event format. Each span
// becomes a complete event on the publisher's or subscriber's process
// (or the cloud's, for broker-side hops), and each multi-hop trace is
// chained with flow events so chrome://tracing draws arrows from the
// device publish through shard ingress, forwards, and deliveries to the
// subscriber's drain.
func WriteChromeTrace(w io.Writer, spans []Span, hz uint64) error {
	sorted := append([]Span(nil), spans...)
	SortSpans(sorted)
	t := &telemetry.ChromeTrace{Hz: hz, Other: map[string]any{"spans": len(sorted), "hz": hz}}
	place := func(s Span) (pid, tid int) {
		switch s.Kind {
		case SpanIngress, SpanForward:
			return cloudPid, s.Shard + 1
		case SpanDeliver:
			if s.Device >= 0 {
				return devPidBase + s.Device, tidDeliver
			}
			return cloudPid, s.Shard + 1
		case SpanRecv:
			return devPidBase + s.Device, tidRecv
		default:
			return devPidBase + s.Device, tidPublish
		}
	}
	for _, s := range sorted {
		pid, tid := place(s)
		if pid == cloudPid {
			t.NameProcess(pid, "cloud")
			t.NameThread(pid, tid, fmt.Sprintf("shard %d", tid-1))
		} else {
			t.NameProcess(pid, fmt.Sprintf("device %d", pid-devPidBase))
			t.NameThread(pid, tid, deviceThreads[tid])
		}
		var dur uint64
		if s.End > s.Start {
			dur = s.End - s.Start
		}
		args := map[string]any{"trace": fmt.Sprintf("%016x", s.Trace), "ok": s.OK}
		if s.Kind == SpanForward {
			args["from_shard"] = s.Peer
		}
		t.Events = append(t.Events, telemetry.ChromeEvent{Name: s.Kind.String(), Cat: "fleetobs", Ph: "X",
			At: s.Start, Len: dur, Pid: pid, Tid: tid, Args: args})
	}

	// Flow events: chain each trace's hops in sorted (hop) order. The
	// sorted span list groups a trace's spans together already.
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Trace == sorted[i].Trace {
			j++
		}
		hops := sorted[i:j]
		if len(hops) >= 2 {
			id := fmt.Sprintf("%016x", hops[0].Trace)
			for k, s := range hops {
				pid, tid := place(s)
				ev := telemetry.ChromeEvent{Name: "flow", Cat: "fleetobs", Ph: "t", At: s.Start, Pid: pid, Tid: tid, ID: id}
				if k == 0 {
					ev.Ph = "s"
				} else if k == len(hops)-1 {
					ev.Ph, ev.BP = "f", "e"
				}
				t.Events = append(t.Events, ev)
			}
		}
		i = j
	}
	return t.Write(w)
}
