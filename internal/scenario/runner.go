package scenario

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/prof"
)

// FixtureResult is one judged fixture.
type FixtureResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// SeedVerdict is the judged outcome of one scenario×seed cell. Every
// field except Host is a pure function of the scenario and the seed —
// wall-clock timing goes to the runner's Stderr or the opt-in Host
// split, never into the judged fields — which is what lets the
// sequential and worker-pool runners produce byte-identical reports.
type SeedVerdict struct {
	Seed uint64 `json:"seed"`
	Pass bool   `json:"pass"`
	// Err is a config or run failure; SLO and fixtures are then unset.
	Err string `json:"error,omitempty"`
	// SLO is the fleetobs verdict (nil when the scenario declares no
	// rules).
	SLO      *fleetobs.Verdict `json:"slo,omitempty"`
	Fixtures []FixtureResult   `json:"fixtures,omitempty"`
	// Summary is the run's deterministic evidence.
	Summary *fleet.Summary `json:"summary,omitempty"`
	// Host is the cell's host wall-clock phase split (boot/step/merge),
	// recorded only under Options.HostProf. It is machine- and
	// load-dependent by nature: determinism comparisons must strip it.
	Host *prof.HostProfile `json:"host,omitempty"`
}

// ScenarioReport aggregates one scenario across the seed matrix.
type ScenarioReport struct {
	Scenario string        `json:"scenario"`
	Summary  string        `json:"summary"`
	Pass     bool          `json:"pass"`
	Seeds    []SeedVerdict `json:"seeds"`
}

// SuiteReport is the roll-up over a whole run: every scenario across
// every seed.
type SuiteReport struct {
	Suite     string           `json:"suite"`
	Seeds     []uint64         `json:"seeds"`
	Pass      bool             `json:"pass"`
	Scenarios []ScenarioReport `json:"scenarios"`
}

// Cells counts scenario×seed cells; Failed counts the failing ones.
func (r *SuiteReport) Cells() (total, failed int) {
	for _, sc := range r.Scenarios {
		for _, sv := range sc.Seeds {
			total++
			if !sv.Pass {
				failed++
			}
		}
	}
	return total, failed
}

// Options shapes a campaign run.
type Options struct {
	// Seeds is the seed matrix; every scenario runs once per seed.
	Seeds []uint64
	// Workers >1 runs cells on a worker pool; 0 or 1 runs them
	// sequentially. Both orderings produce byte-identical reports.
	Workers int
	// Stderr receives wall-clock progress lines (nil: silent). Timing
	// is deliberately kept out of the report itself.
	Stderr io.Writer
	// HostProf records each cell's host wall-clock phase split
	// (boot/step/merge) in SeedVerdict.Host. Host timing is the one
	// non-deterministic field in the report; leave it off when comparing
	// reports byte-for-byte.
	HostProf bool
}

// Run executes every scenario across the seed matrix and judges each
// cell: a cell passes when the run succeeds, the SLO verdict (if any)
// passes, and every fixture holds. The report is deterministic for a
// given (scenarios, seeds) input regardless of Workers.
func Run(name string, scs []Scenario, opt Options) *SuiteReport {
	rep := &SuiteReport{Suite: name, Seeds: opt.Seeds, Pass: true}
	rep.Scenarios = make([]ScenarioReport, len(scs))
	for i, sc := range scs {
		rep.Scenarios[i] = ScenarioReport{
			Scenario: sc.Name,
			Summary:  sc.Summary,
			Seeds:    make([]SeedVerdict, len(opt.Seeds)),
		}
	}

	type cell struct{ si, vi int }
	jobs := make(chan cell)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards Stderr interleaving only
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				sc, seed := scs[c.si], opt.Seeds[c.vi]
				start := time.Now()
				v := runCell(sc, seed, opt.HostProf)
				rep.Scenarios[c.si].Seeds[c.vi] = v
				if opt.Stderr != nil {
					status := "pass"
					if !v.Pass {
						status = "FAIL"
					}
					mu.Lock()
					fmt.Fprintf(opt.Stderr, "%-24s seed %-4d %s  (%.2fs wall)\n",
						sc.Name, seed, status, time.Since(start).Seconds())
					mu.Unlock()
				}
			}
		}()
	}
	for si := range scs {
		for vi := range opt.Seeds {
			jobs <- cell{si, vi}
		}
	}
	close(jobs)
	wg.Wait()

	for i := range rep.Scenarios {
		pass := true
		for _, sv := range rep.Scenarios[i].Seeds {
			if !sv.Pass {
				pass = false
			}
		}
		rep.Scenarios[i].Pass = pass
		if !pass {
			rep.Pass = false
		}
	}
	return rep
}

// runCell judges one scenario×seed cell.
func runCell(sc Scenario, seed uint64, hostProf bool) SeedVerdict {
	v := SeedVerdict{Seed: seed}
	cfg, err := sc.Config(seed)
	if err != nil {
		v.Err = err.Error()
		return v
	}
	cfg.HostProf = cfg.HostProf || hostProf
	res, err := fleet.Run(cfg)
	if err != nil {
		v.Err = err.Error()
		return v
	}
	s := res.Summary
	v.Summary = &s
	v.Host = res.HostProf
	v.Pass = true
	if s.Obs != nil && s.Obs.SLO != nil {
		v.SLO = s.Obs.SLO
		if !v.SLO.Pass {
			v.Pass = false
		}
	}
	for _, f := range sc.Fixtures {
		fr := FixtureResult{Name: f.Name(), OK: true}
		if err := f.Check(res); err != nil {
			fr.OK = false
			fr.Detail = err.Error()
			v.Pass = false
		}
		v.Fixtures = append(v.Fixtures, fr)
	}
	return v
}

// WriteText renders the human verdict report: one line per
// scenario×seed with its SLO rules and fixture results, then the
// suite roll-up.
func (r *SuiteReport) WriteText(w io.Writer) {
	for _, sc := range r.Scenarios {
		status := "pass"
		if !sc.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%s %-24s %s\n", status, sc.Scenario, sc.Summary)
		for _, sv := range sc.Seeds {
			mark := "  ok  "
			if !sv.Pass {
				mark = "  FAIL"
			}
			fmt.Fprintf(w, "%s seed %d", mark, sv.Seed)
			if sv.Err != "" {
				fmt.Fprintf(w, "  error: %s", sv.Err)
			}
			fmt.Fprintln(w)
			if sv.SLO != nil {
				for _, rr := range sv.SLO.Rules {
					m := "ok  "
					if !rr.OK {
						m = "FAIL"
					}
					fmt.Fprintf(w, "        slo %s %-28s actual %g\n", m, rr.Rule, rr.Actual)
				}
			}
			for _, fr := range sv.Fixtures {
				m := "ok  "
				if !fr.OK {
					m = "FAIL"
				}
				fmt.Fprintf(w, "        fix %s %s", m, fr.Name)
				if fr.Detail != "" {
					fmt.Fprintf(w, ": %s", fr.Detail)
				}
				fmt.Fprintln(w)
			}
		}
	}
	total, failed := r.Cells()
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%s %s: %d/%d scenario×seed cells passed (%d scenarios × %d seeds)\n",
		status, r.Suite, total-failed, total, len(r.Scenarios), len(r.Seeds))
}
