package fleet

import (
	"math"
	"testing"

	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/ota"
)

// TestNonFiniteInputsRejected feeds NaN and ±Inf to every float knob
// that reaches the fleet from a flag or a spec string. Each range check
// on a NaN is false, so without an explicit check such a value slipped
// past every bound: a fleet that never published, a JSON summary that
// failed to encode, or a rollout ring sized from a NaN.
func TestNonFiniteInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		err  func() error
	}{
		{"PublishRate NaN", func() error { _, err := Run(Config{PublishRate: nan}); return err }},
		{"PublishRate +Inf", func() error { _, err := Run(Config{PublishRate: inf}); return err }},
		{"PublishRate -Inf", func() error { _, err := Run(Config{PublishRate: -inf}); return err }},
		{"DropRate NaN", func() error { _, err := Run(Config{DropRate: nan}); return err }},
		{"ObsSample NaN", func() error { _, err := Run(Config{Obs: true, ObsSample: nan}); return err }},
		{"profile rate NaN", func() error {
			_, err := Run(Config{Profiles: []Profile{{Name: "a", PublishRate: nan}}})
			return err
		}},
		{"profile spec rate=NaN", func() error { _, err := ParseProfiles("a:1:rate=NaN"); return err }},
		{"profile spec rate=inf", func() error { _, err := ParseProfiles("a:1:rate=inf"); return err }},
		{"ota ring NaN", func() error {
			_, err := ota.NewController(ota.Plan{Rings: []float64{nan}}, 8, 1_000_000)
			return err
		}},
		{"ota ring NaN after 10", func() error {
			_, err := ota.NewController(ota.Plan{Rings: []float64{10, nan, 100}}, 8, 1_000_000)
			return err
		}},
		{"SLO value NaN", func() error { _, err := fleetobs.ParseRules("availability>=NaN"); return err }},
		{"SLO value Inf", func() error { _, err := fleetobs.ParseRules("p99<=Infms"); return err }},
	}
	for _, tc := range cases {
		if tc.err() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
