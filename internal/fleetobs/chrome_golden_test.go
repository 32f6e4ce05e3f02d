package fleetobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChromeTraceGolden pins the Chrome export of the aggregate spans
// and of a tracer whose span buffer overflowed.
func TestChromeTraceGolden(t *testing.T) {
	in := aggregateInput()
	var spans bytes.Buffer
	if err := WriteChromeTrace(&spans, in.Spans, in.Hz); err != nil {
		t.Fatal(err)
	}
	checkChromeGolden(t, "chrome_spans.json", spans.Bytes())

	tr := NewTracer(TracerConfig{Device: 0, Hz: 100, SampleRate: 1, Seed: 3, MaxSpans: 4})
	for i := uint64(0); i < 10; i++ {
		trace := tr.SamplePublish()
		tr.PublishSpan(trace, i*10, i*10+2, true)
		tr.MQTTIngress(trace, 0, i*10+5)
	}
	var full bytes.Buffer
	if err := WriteChromeTrace(&full, tr.Spans(), 100); err != nil {
		t.Fatal(err)
	}
	checkChromeGolden(t, "chrome_full_ring.json", full.Bytes())
}

// checkChromeGolden compares a Chrome trace_event document against
// testdata/name by content, not bytes: metadata ("M") events and timed
// events are each compared in order, field by field, ignoring fields
// that are zero or absent and comparing ts and dur to 3 decimals, and
// otherData must be equal. Field order, omitempty choices, float
// precision and where the metadata sits are the writer's to choose:
// trace viewers read the same trace from all of them.
func checkChromeGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := chromeContent(t, got), chromeContent(t, want); g != w {
		t.Errorf("%s differs from testdata/%s in content:\n--- got ---\n%s\n--- want ---\n%s", name, name, g, w)
	}
}

// chromeContent renders what checkChromeGolden compares, one line per
// event.
func chromeContent(t *testing.T, doc []byte) string {
	t.Helper()
	var d struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatalf("not a Chrome trace: %v", err)
	}
	var meta, timed []string
	for _, ev := range d.TraceEvents {
		for k, v := range ev {
			if v == "" || v == 0.0 {
				delete(ev, k)
			} else if k == "ts" || k == "dur" {
				ev[k] = fmt.Sprintf("%.3f", v)
			}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if ev["ph"] == "M" {
			meta = append(meta, string(b))
		} else {
			timed = append(timed, string(b))
		}
	}
	other, err := json.Marshal(d.OtherData)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(append(append(meta, timed...), "otherData "+string(other)), "\n")
}
