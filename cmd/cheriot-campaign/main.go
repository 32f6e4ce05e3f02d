// cheriot-campaign runs declarative fleet scenarios and suites across
// a seed matrix and judges every scenario×seed cell: the run's SLO
// rules must pass and every fixture must hold.
//
// Usage:
//
//	cheriot-campaign list                      # scenarios and suites
//	cheriot-campaign run smoke                 # one suite, default seed
//	cheriot-campaign run pod-storm -seeds 5    # one scenario, seeds 1..5
//	cheriot-campaign run faults -seeds 3 -par 4 -json
//
// The verdict report (JSON with -json, human text otherwise) is a pure
// function of the scenario set and the seed matrix: sequential and
// worker-pool runs emit byte-identical reports; wall-clock progress
// goes to stderr. The process exits 3 when any cell fails — the same
// machine-readable verdict convention as cheriot-fleet -slo.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/cheriot-go/cheriot/internal/scenario"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is the whole program behind the exit code; tests drive it
// directly to assert the verdict-to-exit-code contract.
func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "list":
		list(stdout)
		return 0
	case "run":
		return run(args[1:], stdout, stderr)
	default:
		return usage(stderr)
	}
}

func usage(stderr io.Writer) int {
	fmt.Fprintf(stderr, `usage:
  cheriot-campaign list
  cheriot-campaign run <suite|scenario> [-seeds N] [-seed BASE] [-par N] [-json] [-quiet] [-hostprof]
`)
	return 2
}

func list(stdout io.Writer) {
	fmt.Fprintln(stdout, "scenarios:")
	for _, name := range scenario.Names() {
		s, _ := scenario.Get(name)
		ported := ""
		if s.Equivalent != "" {
			ported = "  [ported]"
		}
		fmt.Fprintf(stdout, "  %-18s %s%s\n", name, s.Summary, ported)
	}
	fmt.Fprintln(stdout, "suites:")
	for _, name := range scenario.SuiteNames() {
		fmt.Fprintf(stdout, "  %-18s %v\n", name, scenario.SuiteMembers(name))
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nseeds := fs.Int("seeds", 1, "seed matrix size: run every scenario at seeds BASE..BASE+N-1")
	seedBase := fs.Uint64("seed", 1, "first seed of the matrix")
	par := fs.Int("par", 1, "worker-pool width across scenario×seed cells (1: sequential)")
	jsonOut := fs.Bool("json", false, "print the deterministic suite report as JSON on stdout")
	quiet := fs.Bool("quiet", false, "suppress per-cell progress on stderr")
	hostProf := fs.Bool("hostprof", false, "record each cell's host wall-clock phase split (boot/step/merge) in the report")

	// Accept both `run smoke -seeds 2` and `run -seeds 2 smoke`.
	var target string
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		target, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case target == "" && fs.NArg() == 1:
		target = fs.Arg(0)
	case target != "" && fs.NArg() == 0:
	default:
		return usage(stderr)
	}
	if *nseeds < 1 {
		fmt.Fprintln(stderr, "campaign: -seeds must be >= 1")
		return 2
	}

	scs, ok := scenario.Suite(target)
	if !ok {
		s, found := scenario.Get(target)
		if !found {
			fmt.Fprintf(stderr, "campaign: unknown suite or scenario %q (see cheriot-campaign list)\n", target)
			return 2
		}
		scs = []scenario.Scenario{s}
	}

	seeds := make([]uint64, *nseeds)
	for i := range seeds {
		seeds[i] = *seedBase + uint64(i)
	}
	opt := scenario.Options{Seeds: seeds, Workers: *par, HostProf: *hostProf}
	if !*quiet {
		opt.Stderr = stderr
	}
	rep := scenario.Run(target, scs, opt)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 1
		}
	} else {
		rep.WriteText(stdout)
	}
	if !rep.Pass {
		return 3
	}
	return 0
}
