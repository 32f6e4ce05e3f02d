// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator for a fixed host-time budget, checks that
// every simulated output is correct and deterministic, and prints every
// end-to-end metric by name with its unit. With --trace 1 it instead
// makes a traced run that records spans around its calls into each layer
// and prints the per-layer metrics. The compare sub-command judges two
// sets of result files against each other.
//
//	perfbench --workload paper-device|fleet-ingest|fleet-ops [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--bench BENCHMARK.json]
//	perfbench compare [--bench BENCHMARK.json] BASE_DIR CHANGE_DIR
//
// Run it through perfbench/run.sh from the repository root, which builds
// it first. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/cheriot-go/cheriot/internal/prof"
)

// defaultSeed is the seed the benchmark runs when none is given.
const defaultSeed = 1

// workload is one named set of inputs. BENCHMARK.json lists the names.
type workload struct {
	name string
	// armed says whether the workload runs with its instrumentation
	// layers on; its counterpart repetition flips them.
	armed bool
	// instrSimNeutral says that arming the instrumentation layers leaves
	// every simulated result identical, so the counterpart repetition
	// must reproduce the workload's digest. fleetobs prices its trace-ID
	// trailer on the wire, so armed fleets differ by design.
	instrSimNeutral bool
	// minReps is the fewest repetitions a run makes, however short its
	// budget, so that medians have something to take the middle of.
	minReps int
	rep     func(o repOpts) repResult
}

var workloads = []workload{
	{name: "paper-device", instrSimNeutral: true, minReps: 5, rep: paperRep},
	{name: "fleet-ingest", minReps: 3, rep: ingestRep},
	{name: "fleet-ops", armed: true, minReps: 3, rep: opsRep},
}

// repOpts configures one repetition of a workload.
type repOpts struct {
	seed uint64
	// tr and root are set on traced repetitions: spans go under root.
	tr   *tracer
	root *span
	// counterpart flips the workload's instrumentation layers (armed ↔
	// unarmed) for the instr.overhead_ratio measurement.
	counterpart bool
}

// repResult is what one repetition measured and checked.
type repResult struct {
	setup, run        time.Duration
	simSeconds        float64
	attempted, failed uint64
	errs              []string
	checks            []check
	digest            string
	paperDigest       string
	sim               map[string]float64
	layers            map[string]float64
	profile           *prof.Profile
}

func (r *repResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

// fail records a failed operation that makes the repetition's outputs
// wrong.
func (r *repResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-device, fleet-ingest or fleet-ops")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (inputs are a pure function of it)")
	seconds := fs.Int("seconds", 30, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result, span and table files")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition naming the workloads and metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bench, err := loadBench(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var w *workload
	for _, bw := range bench.Workloads {
		for i := range workloads {
			if bw.Name == *name && workloads[i].name == *name {
				w = &workloads[i]
			}
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: workload %q is not both in %s and defined here\n", *name, *benchPath)
		return 2
	case *seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case *seed == 0:
		fmt.Fprintln(os.Stderr, "perfbench: --seed must be non-zero")
		return 2
	}
	res := &result{
		Kind: resultKind, Workload: w.name, Seed: *seed, Seconds: *seconds,
		Trace: *trace == 1, StartedUnix: time.Now().UnixNano(),
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
		Metrics: map[string]metricValue{}, Samples: map[string][]float64{},
	}
	budget := time.Duration(*seconds) * time.Second
	if res.Trace {
		err = tracedRun(bench, w, res, budget, *out, stdout)
	} else {
		err = untracedRun(bench, w, res, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	path, err := writeResult(*out, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "result file: %s\n", path)
	last := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	defs := bench.EndToEnd
	if res.Trace {
		defs = bench.PerLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s measures no %s\n", w.name, d.Name)
			return 1
		}
		last.Metrics[d.Name] = v
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 3
	}
	return 0
}

// tally folds repetitions into checks, counts and digests.
type tally struct {
	checks       map[string]*check
	order        []string
	digests      map[string]int
	paperDigests map[string]int
	// counts holds each distinct (attempted, failed) pair of the
	// repetitions whose digests are compared, and first the first one.
	counts map[[2]uint64]int
	first  [2]uint64
}

func newTally() *tally {
	return &tally{checks: map[string]*check{}, digests: map[string]int{}, paperDigests: map[string]int{},
		counts: map[[2]uint64]int{}}
}

func (t *tally) add(r repResult, compareDigest bool) {
	checks := append([]check(nil), r.checks...)
	checks = append(checks, check{Name: "no failed boots, runs, calls or allocations", OK: len(r.errs) == 0,
		Detail: strings.Join(r.errs, "; ")})
	for _, c := range checks {
		cur := t.checks[c.Name]
		if cur == nil {
			cur = &check{Name: c.Name, OK: true}
			t.checks[c.Name] = cur
			t.order = append(t.order, c.Name)
		}
		if !c.OK && cur.OK {
			cur.OK, cur.Detail = false, c.Detail
		}
	}
	if compareDigest {
		c := [2]uint64{r.attempted, r.failed}
		if len(t.counts) == 0 {
			t.first = c
		}
		t.counts[c]++
		t.digests[r.digest]++
		if r.paperDigest != "" {
			t.paperDigests[r.paperDigest]++
		}
	}
}

// finish adds the determinism checks and fills res's verdict fields.
// The reported operation counts are one repetition's: every repetition
// at a seed must repeat them exactly, so they do not depend on how many
// repetitions the host's speed allowed.
func (t *tally) finish(res *result) {
	t.add(repResult{checks: []check{
		{Name: "sim digest identical across repetitions", OK: len(t.digests) == 1,
			Detail: fmt.Sprintf("%d distinct digests", len(t.digests))},
		{Name: "operation counts identical across repetitions", OK: len(t.counts) == 1,
			Detail: fmt.Sprintf("%d distinct (attempted, failed) counts", len(t.counts))},
	}}, false)
	if len(t.paperDigests) > 0 {
		t.add(repResult{checks: []check{
			{Name: "paper table identical across repetitions", OK: len(t.paperDigests) == 1,
				Detail: fmt.Sprintf("%d distinct tables", len(t.paperDigests))},
		}}, false)
	}
	correct := true
	for _, n := range t.order {
		res.Checks = append(res.Checks, *t.checks[n])
		correct = correct && t.checks[n].OK
	}
	res.Digest = onlyKey(t.digests)
	res.PaperDigest = onlyKey(t.paperDigests)
	var frac float64
	res.Attempted, res.Failed, frac = finalCounts(t.first[0], t.first[1], correct)
	res.Correct = correct && t.first[0] > 0
	res.Metrics["failed_frac"] = metricValue{frac, "frac"}
}

// onlyKey returns the sole key of m, or a joined list when there are
// several.
func onlyKey(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// settle drops the previous repetition's garbage so that each starts
// from a comparable heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// untracedRun repeats the workload until the budget is spent and reports
// the end-to-end metrics. Its host times are scaled by the host's speed
// around each repetition (see ref.go); the raw times are kept beside
// them in the result file.
func untracedRun(bench benchFile, w *workload, res *result, budget time.Duration, stdout io.Writer) error {
	t := newTally()
	eng := newRefEngine()
	eng.run()
	chase := func(t refTimes) time.Duration { return t.chase }
	handoff := func(t refTimes) time.Duration { return t.handoff }
	refBudget := refFirst
	start := time.Now()
	var setup, run, rawSetup, rawRun, speed []float64
	var last repResult
	for i := 0; ; i++ {
		settle()
		around := eng.sample(refBudget, nil)
		r := w.rep(repOpts{seed: res.Seed})
		around = eng.sample(refBudget, around)
		refBudget = time.Duration(refShare * float64(r.setup+r.run))
		k := hostSpeed(around)
		t.add(r, true)
		speed = append(speed, k)
		res.Samples["ref_chase_s"] = append(res.Samples["ref_chase_s"], medianOf(around, chase))
		res.Samples["ref_handoff_s"] = append(res.Samples["ref_handoff_s"], medianOf(around, handoff))
		rawSetup = append(rawSetup, r.setup.Seconds())
		rawRun = append(rawRun, r.run.Seconds())
		setup = append(setup, r.setup.Seconds()*k)
		run = append(run, r.run.Seconds()*k)
		last = r
		if time.Since(start) >= budget && i+1 >= w.minReps {
			break
		}
	}
	res.Reps = len(run)
	res.Samples["setup_s"], res.Samples["run_s"] = setup, run
	res.Samples["raw_setup_s"], res.Samples["raw_run_s"] = rawSetup, rawRun
	res.Samples["host_speed"] = speed
	runMed := median(run)
	res.Metrics["setup_s"] = metricValue{median(setup), "s"}
	res.Metrics["run_s"] = metricValue{runMed, "s"}
	if runMed > 0 {
		res.Metrics["realtime_x"] = metricValue{last.simSeconds / runMed, "sim_s/s"}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"host times are scaled by the host speed around each repetition (reference %v over the reference's measured time; median speed %.3f); raw medians: setup %.6f s, run %.6f s",
		refNominal, median(speed), median(rawSetup), median(rawRun)))
	rss := peakRSSMiB()
	res.Metrics["peak_rss_mib"] = metricValue{rss, "MiB"}
	t.add(repResult{checks: []check{{Name: "peak RSS readable", OK: rss > 0}}}, false)
	for _, d := range simMetrics {
		if v, ok := last.sim[d.Name]; ok {
			res.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	t.finish(res)
	writeRunReport(stdout, bench, res)
	return nil
}

// tracedRun alternates untraced and traced repetitions until the budget
// is spent, then runs the instrumentation counterpart twice, and reports
// the per-layer metrics, the span file and the per-layer table.
func tracedRun(bench benchFile, w *workload, res *result, budget time.Duration, outDir string, stdout io.Writer) error {
	t := newTally()
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, res.Seed, res.StartedUnix))
	start := time.Now()
	var plain, traced []float64
	layerSamples := map[string][]float64{}
	var profiles []*prof.Profile
	for {
		settle()
		u := w.rep(repOpts{seed: res.Seed})
		t.add(u, true)
		plain = append(plain, u.run.Seconds())

		settle()
		root := tr.begin(nil, w.name, "bench")
		r := w.rep(repOpts{seed: res.Seed, tr: tr, root: root})
		root.end(1, 0)
		t.add(r, true)
		traced = append(traced, r.run.Seconds())
		for k, v := range r.layers {
			layerSamples[k] = append(layerSamples[k], v)
		}
		if r.profile != nil {
			profiles = append(profiles, r.profile)
		}
		if time.Since(start) >= budget {
			break
		}
	}
	var counter []float64
	for i := 0; i < 2; i++ {
		settle()
		c := w.rep(repOpts{seed: res.Seed, counterpart: true})
		t.add(c, w.instrSimNeutral)
		counter = append(counter, c.run.Seconds())
	}

	spans := tr.snapshot()
	rows := opTable(spans)
	m := res.Metrics
	for _, d := range bench.PerLayer {
		m[d.Name] = metricValue{0, d.Unit}
	}
	for k, vs := range layerSamples {
		m[k] = metricValue{median(vs), bench.unit(k)}
	}
	for k, v := range spanLayerMetrics(rows) {
		m[k] = metricValue{v, bench.unit(k)}
	}
	if len(profiles) > 0 {
		merged := prof.Merge(profiles...)
		for k, v := range profileShares(merged) {
			m[k] = metricValue{v, bench.unit(k)}
		}
		m["prof.frames"] = metricValue{float64(len(merged.Frames)), "count"}
	}
	plainMed, tracedMed := median(plain), median(traced)
	armed, unarmed := plainMed, median(counter)
	if !w.armed {
		armed, unarmed = unarmed, armed
	}
	if unarmed > 0 {
		m["instr.overhead_ratio"] = metricValue{armed / unarmed, "ratio"}
	}
	if plainMed > 0 {
		m["trace.overhead_ratio"] = metricValue{tracedMed / plainMed, "ratio"}
	}
	res.Reps = len(traced)
	res.Samples["untraced_run_s"], res.Samples["traced_run_s"] = plain, traced
	res.Samples["counterpart_run_s"] = counter
	res.Notes = append(res.Notes,
		fmt.Sprintf("tracing overhead: traced run_s %.4f s - untraced %.4f s = %+.4f s (ratio %.4f; base: untraced; medians of %d repetitions each)",
			tracedMed, plainMed, tracedMed-plainMed, safeDiv(tracedMed, plainMed), len(plain)),
		fmt.Sprintf("instrumentation overhead: armed run_s %.4f s / unarmed %.4f s = %.4f (base: unarmed; medians of the repetitions of each)",
			armed, unarmed, safeDiv(armed, unarmed)),
		"HostProf's pump phase is extrapolated from a 1-in-64 sample; it is left out of every per-layer metric and span")
	t.finish(res)

	if err := os.MkdirAll(filepath.Join(outDir, "traces"), 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d", w.name, res.Seed))
	if err := writeSpans(base+".spans.json", spans); err != nil {
		return err
	}
	var table strings.Builder
	writeOpTable(&table, rows)
	for _, n := range res.Notes {
		fmt.Fprintln(&table, n)
	}
	if err := os.WriteFile(base+".layers.txt", []byte(table.String()), 0o644); err != nil {
		return err
	}
	writeRunReport(stdout, bench, res)
	fmt.Fprint(stdout, table.String())
	fmt.Fprintf(stdout, "span file: %s.spans.json (%d spans)\nlayer table: %s.layers.txt\n", base, len(spans), base)
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeRunReport prints the human-readable part of a run's output.
func writeRunReport(w io.Writer, bench benchFile, res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d %s reps=%d %s cpus=%d\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Reps, res.GoVersion, res.CPUs)
	passed := 0
	for _, c := range res.Checks {
		if c.OK {
			passed++
		}
	}
	fmt.Fprintf(w, "checks: %d/%d passed\n", passed, len(res.Checks))
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  %s %s", mark, c.Name)
		if !c.OK && c.Detail != "" {
			fmt.Fprintf(w, ": %s", c.Detail)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "sim digest: %s", res.Digest)
	if res.PaperDigest != "" {
		fmt.Fprintf(w, "   paper-table digest: %s", res.PaperDigest)
	}
	fmt.Fprintf(w, "\noperations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	if res.Trace {
		fmt.Fprintln(w, "per-layer metrics:")
		for _, d := range bench.PerLayer {
			fmt.Fprintf(w, "  %-28s %14.4f %-10s %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit, metricDocs[d.Name])
		}
		return
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	var defs []simMetric
	for _, d := range bench.EndToEnd {
		defs = append(defs, simMetric{d.Name, d.Unit, metricDocs[d.Name]})
	}
	defs = append(defs, simMetrics...)
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-22s %14s %-8s %s\n", d.Name, "n/a", d.Unit, d.Doc)
			continue
		}
		fmt.Fprintf(w, "  %-22s %14.6g %-8s %s%s\n", d.Name, v.Value, d.Unit, d.Doc, sampleNote(res.Samples[d.Name]))
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, n)
	}
}

// sampleNote states the sample count and, where at least ten samples lie
// beyond one, the highest tail percentile.
func sampleNote(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	tail := "too few samples for a tail percentile"
	if p, v, ok := tailPercentile(xs); ok {
		tail = fmt.Sprintf("p%g %.6g", p, v)
	}
	return fmt.Sprintf(" [median of n=%d; %s]", len(xs), tail)
}

// writeResult stores res under dir/results/<workload>/.
func writeResult(dir string, res *result) (string, error) {
	d := filepath.Join(dir, "results", res.Workload)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	mode := "run"
	if res.Trace {
		mode = "trace"
	}
	path := filepath.Join(d, fmt.Sprintf("%s-seed%d-%d.json", mode, res.Seed, res.StartedUnix))
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write result %s: %w", path, err)
	}
	return path, nil
}
