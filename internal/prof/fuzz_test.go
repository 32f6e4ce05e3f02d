package prof

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzProfileChrome feeds arbitrary profile JSON (what cheriot-prof
// chrome reads) to the Chrome exporter: every profile ReadProfile
// accepts exports, without a panic, to valid JSON whose B/E slices nest.
// The committed corpus holds a 4,000-deep chain, which took over 200 ms
// per run while each level re-summed its subtree.
func FuzzProfileChrome(f *testing.F) {
	for _, seed := range []string{
		`{"hz":33000000,"frames":[{"stack":"app","self_cycles":70},{"stack":"app;comp.a","self_cycles":30,"calls":2}]}`,
		`{"frames":[{"stack":";;","self_cycles":1},{"stack":"","self_cycles":18446744073709551615}]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := p.WriteChromeTrace(&out); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		var doc struct {
			TraceEvents []struct{ Name, Ph string }
		}
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatalf("export is not JSON: %v", err)
		}
		var open []string
		for _, ev := range doc.TraceEvents {
			switch ev.Ph {
			case "B":
				open = append(open, ev.Name)
			case "E":
				if len(open) == 0 || open[len(open)-1] != ev.Name {
					t.Fatalf("E %q does not close the innermost open slice (open: %q)", ev.Name, open)
				}
				open = open[:len(open)-1]
			default:
				t.Fatalf("unexpected phase %q", ev.Ph)
			}
		}
		if len(open) > 0 {
			t.Fatalf("%d slices left open: %q", len(open), open)
		}
	})
}
