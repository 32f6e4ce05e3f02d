package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/flightrec"
)

// TestChromeExportGolden pins -chrome over the use-after-free demo's
// flight dump.
func TestChromeExportGolden(t *testing.T) {
	f, err := os.Open("../../internal/iotapp/testdata/uaf_flightrec.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := flightrec.ReadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(out, []*flightrec.Dump{d}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	checkChromeGolden(t, "chrome_uaf.json", got)
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
