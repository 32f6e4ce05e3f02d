package fleetobs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Rule is one declarative SLO rule over the fleet health series:
//
//	availability >= 0.95 @12s   (min availability from second 12 on)
//	p99          <= 5ms         (fleet publish→deliver p99)
//	p50          <= 2ms
//	delivery     >= 0.99        (traced delivery ratio)
//	drops        <= 100         (total link drops)
//	crashes      <= 0           (flight-recorder reports)
//	lost         <= 0           (traced publishes that never ingressed)
//
// The textual form is "metric op value[ms][@Ns]"; rules join with ';'.
type Rule struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Value  float64 `json:"value"`
	// FromSecond scopes per-second metrics (availability) to the steady
	// state after bring-up; 0 evaluates the whole run.
	FromSecond int `json:"from_second,omitempty"`
}

// sloMetrics are the recognized rule metrics.
var sloMetrics = map[string]bool{
	"availability": true, "p50": true, "p99": true,
	"delivery": true, "drops": true, "crashes": true, "lost": true,
}

// ParseRules parses a ';'-separated rule list. An empty string yields no
// rules.
func ParseRules(s string) ([]Rule, error) {
	var out []Rule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseRule(s string) (Rule, error) {
	var r Rule
	op := ""
	for _, cand := range []string{">=", "<="} {
		if i := strings.Index(s, cand); i > 0 {
			r.Metric = strings.TrimSpace(s[:i])
			op = cand
			s = strings.TrimSpace(s[i+2:])
			break
		}
	}
	if op == "" {
		return r, fmt.Errorf("fleetobs: rule %q needs '>=' or '<='", s)
	}
	r.Op = op
	if !sloMetrics[r.Metric] {
		return r, fmt.Errorf("fleetobs: unknown SLO metric %q", r.Metric)
	}
	if i := strings.Index(s, "@"); i >= 0 {
		scope := strings.TrimSpace(s[i+1:])
		scope = strings.TrimSuffix(scope, "s")
		from, err := strconv.Atoi(scope)
		if err != nil {
			return r, fmt.Errorf("fleetobs: bad scope %q in rule", scope)
		}
		r.FromSecond = from
		s = strings.TrimSpace(s[:i])
	}
	s = strings.TrimSuffix(strings.TrimSpace(s), "ms")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return r, fmt.Errorf("fleetobs: bad value %q in rule", s)
	}
	r.Value = v
	return r, nil
}

// String renders the rule back in its textual form.
func (r Rule) String() string {
	unit := ""
	if r.Metric == "p50" || r.Metric == "p99" {
		unit = "ms"
	}
	s := fmt.Sprintf("%s%s%g%s", r.Metric, r.Op, r.Value, unit)
	if r.FromSecond > 0 {
		s += fmt.Sprintf("@%ds", r.FromSecond)
	}
	return s
}

// RuleResult is one evaluated rule.
type RuleResult struct {
	Rule   string  `json:"rule"`
	Actual float64 `json:"actual"`
	OK     bool    `json:"ok"`
}

// Verdict is the SLO evaluation over a whole run.
type Verdict struct {
	Pass  bool         `json:"pass"`
	Rules []RuleResult `json:"rules"`
}

// Evaluate checks every rule against the report. With no rules the
// verdict passes vacuously.
func Evaluate(rules []Rule, r *Report) Verdict {
	v := Verdict{Pass: true}
	for _, rule := range rules {
		actual := metricValue(rule, r)
		ok := false
		switch rule.Op {
		case ">=":
			ok = actual >= rule.Value
		case "<=":
			ok = actual <= rule.Value
		}
		if !ok {
			v.Pass = false
		}
		v.Rules = append(v.Rules, RuleResult{Rule: rule.String(), Actual: actual, OK: ok})
	}
	return v
}

func metricValue(rule Rule, r *Report) float64 {
	switch rule.Metric {
	case "availability":
		// Minimum availability over the scoped seconds; an empty scope
		// (run shorter than FromSecond) evaluates to 0 so a rule over a
		// second range the run never reached fails loudly rather than
		// passing vacuously.
		min, seen := 1.0, false
		for _, h := range r.Health {
			if h.Second < rule.FromSecond {
				continue
			}
			seen = true
			if h.Availability < min {
				min = h.Availability
			}
		}
		if !seen {
			return 0
		}
		return min
	case "p50":
		return r.E2EP50Ms
	case "p99":
		return r.E2EP99Ms
	case "delivery":
		if r.TracedPublishes == 0 {
			return 1
		}
		return float64(r.Delivered) / float64(r.TracedPublishes)
	case "drops":
		return float64(r.LinkDrops)
	case "crashes":
		total := 0.0
		for _, h := range r.Health {
			total += float64(h.Crashes)
		}
		return total
	case "lost":
		return float64(r.Lost)
	}
	return 0
}
