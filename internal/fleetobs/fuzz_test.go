package fleetobs

import (
	"math"
	"testing"
)

// FuzzParseRules feeds arbitrary SLO specs to the parser (the -slo flag
// and a rollout's health SLO): an error or rules, never a panic, and
// every accepted rule compares against a finite value.
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		"delivery>=0.99;crashes<=0;p99<=50ms;availability>=0.9@12s",
		"p50<=2.5ms", "drops<=3 @4s", "availability>=NaN", "lost<=1e400", ";;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				t.Fatalf("ParseRules(%q) accepted %v with a non-finite value", spec, r)
			}
		}
	})
}
