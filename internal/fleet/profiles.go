package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseProfiles parses a heterogeneous-fleet profile spec:
// semicolon-separated entries of the form name[:weight[:key=value,...]]
// with keys rate (publishes per simulated second), bytes (payload size),
// churn (reconnect every N publishes), and fw (firmware shape: fleetapp
// or jsvm). Zero-valued fields inherit the top-level Config knobs.
// Wholly empty entries (a trailing ';') are skipped; duplicate profile
// names are rejected — a silent last-one-wins would make the weighted
// device assignment lie about the spec.
func ParseProfiles(spec string) ([]Profile, error) {
	var out []Profile
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, ":", 3)
		p := Profile{Name: strings.TrimSpace(parts[0])}
		if p.Name == "" {
			return nil, fmt.Errorf("profile entry %q: empty name", entry)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("profile %q: duplicate name", p.Name)
		}
		seen[p.Name] = true
		if len(parts) > 1 && parts[1] != "" {
			w, err := strconv.Atoi(parts[1])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("profile %q: bad weight %q", p.Name, parts[1])
			}
			p.Weight = w
		}
		if len(parts) > 2 {
			for _, kv := range strings.Split(parts[2], ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("profile %q: bad option %q (want key=value)", p.Name, kv)
				}
				switch k {
				case "rate":
					f, err := strconv.ParseFloat(v, 64)
					if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
						return nil, fmt.Errorf("profile %q: bad rate %q", p.Name, v)
					}
					p.PublishRate = f
				case "bytes":
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("profile %q: bad bytes %q", p.Name, v)
					}
					p.PublishBytes = n
				case "churn":
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("profile %q: bad churn %q", p.Name, v)
					}
					p.ReconnectEvery = n
				case "fw":
					if v != FirmwareGo && v != FirmwareJS {
						return nil, fmt.Errorf("profile %q: unknown firmware %q (want %s or %s)",
							p.Name, v, FirmwareGo, FirmwareJS)
					}
					p.Firmware = v
				default:
					return nil, fmt.Errorf("profile %q: unknown option %q", p.Name, k)
				}
			}
		}
		out = append(out, p)
	}
	return out, nil
}
