package fleet

import (
	"math"
	"testing"
)

// FuzzParseProfiles feeds arbitrary -profiles specs to the parser: an
// error or profiles, never a panic, and every accepted profile has a
// finite publish rate.
func FuzzParseProfiles(f *testing.F) {
	for _, seed := range []string{
		"sensor:3:rate=2.5,bytes=24;gateway:2:churn=8;jsdev:1:fw=jsvm; ",
		"a", "a:1:rate=NaN", "a:1:rate=-inf", "a::bytes=9", "a;a", ":",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		profiles, err := ParseProfiles(spec)
		if err != nil {
			return
		}
		for _, p := range profiles {
			if math.IsNaN(p.PublishRate) || math.IsInf(p.PublishRate, 0) {
				t.Fatalf("ParseProfiles(%q) accepted %+v with a non-finite rate", spec, p)
			}
		}
	})
}
