package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// pairCounts counts, over pairs matched by index, the pairs where the
// change reads better and where it reads worse; equal readings are ties
// and count for neither side.
func pairCounts(base, change []float64, lowerBetter bool) (wins, losses int) {
	for i := 0; i < len(base) && i < len(change); i++ {
		d := change[i] - base[i]
		if !lowerBetter {
			d = -d
		}
		switch {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	return wins, losses
}

// judge applies the paired-comparison rule to one metric: a gain needs
// at least nine tenths of the pairs and medians further apart than the
// parent's interquartile distance; a bounded metric regresses when its
// median worsens by more than the bound, and is unresolved when the
// parent's own spread is wider than the bound. base and change are paired
// by index.
func judge(base, change []float64, lowerBetter bool, bound *float64) string {
	pairs := min(len(base), len(change))
	if pairs < minPairs {
		return fmt.Sprintf("too few pairs (%d < %d)", pairs, minPairs)
	}
	base, change = base[:pairs], change[:pairs]
	bq, _ := quartiles(base)
	bMed, cMed := median(base), median(change)
	iqr := bq[2] - bq[0]
	worse := cMed - bMed // > 0: the change reads worse
	if !lowerBetter {
		worse = -worse
	}
	wins, losses := pairCounts(base, change, lowerBetter)
	// 10·wins ≥ 9·pairs is "at least nine tenths", exactly.
	switch {
	case 10*wins >= 9*pairs && -worse > iqr:
		return "improved"
	case bound == nil:
		if 10*losses >= 9*pairs && worse > iqr {
			return "worse"
		}
		return "no clear change"
	case bMed != 0 && iqr/math.Abs(bMed) > *bound:
		if allBetter(base, change, lowerBetter) {
			return "improved (every change run better than every parent run)"
		}
		return "unresolved (parent spread wider than bound)"
	case bMed != 0 && worse/math.Abs(bMed) > *bound:
		return "REGRESSION (median worse by more than bound)"
	default:
		return "no regression (within bound)"
	}
}

func allBetter(base, change []float64, lowerBetter bool) bool {
	bs, cs := sorted(base), sorted(change)
	if lowerBetter {
		return cs[len(cs)-1] < bs[0]
	}
	return cs[0] > bs[len(bs)-1]
}

// loadResults reads every perfbench result file under dir.
func loadResults(dir string) ([]result, error) {
	var out []result
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if json.Unmarshal(b, &r) != nil || r.Kind != resultKind {
			return nil // spans and other JSON files
		}
		out = append(out, r)
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].StartedUnix < out[j].StartedUnix })
	return out, err
}

func compareMain(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' directions and bounds")
	if err := fset.Parse(args); err != nil || fset.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] BASE_DIR CHANGE_DIR")
		return 2
	}
	bench, err := loadBench(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	base, err := loadResults(fset.Arg(0))
	if err == nil {
		var change []result
		change, err = loadResults(fset.Arg(1))
		if err == nil {
			return compare(stdout, bench, base, change)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
	return 2
}

// compare prints one row per workload × metric and the digest agreement
// per workload and seed. It returns 3 when any metric regressed or any
// result failed its checks.
func compare(w io.Writer, bench benchFile, base, change []result) int {
	status := 0
	byWorkload := func(rs []result, trace bool) map[string][]result {
		m := map[string][]result{}
		for _, r := range rs {
			if r.Trace == trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	var names []string
	for _, wl := range bench.Workloads {
		names = append(names, wl.Name)
	}
	for _, trace := range []bool{false, true} {
		defs := bench.EndToEnd
		if trace {
			defs = bench.PerLayer
		}
		bw, cw := byWorkload(base, trace), byWorkload(change, trace)
		for _, wl := range names {
			b, c := bw[wl], cw[wl]
			if len(b) == 0 && len(c) == 0 {
				continue
			}
			mode := "untraced"
			if trace {
				mode = "traced"
			}
			pairs, first := min(len(b), len(c)), parentFirst(b, c)
			fmt.Fprintf(w, "== %s (%s): %d parent runs, %d change runs, %d pairs; %d pairs ran the parent first\n",
				wl, mode, len(b), len(c), pairs, first)
			if pairs > 1 && (first == 0 || first == pairs) {
				fmt.Fprintln(w, "   WARNING: the pairs did not alternate; a drift in host speed between the two sets reads as a change")
			}
			for _, side := range [][]result{b, c} {
				for _, r := range side {
					if !r.Correct {
						fmt.Fprintf(w, "   run seed=%d failed its checks\n", r.Seed)
						status = 3
					}
				}
			}
			writeDigests(w, b, c)
			fmt.Fprintf(w, "   %-28s %-10s %-38s %-38s %8s  %s\n", "metric", "unit",
				"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
			for _, d := range defs {
				bv, cv := values(b, d.Name), values(c, d.Name)
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				v := judge(bv, cv, d.Better == "lower", d.Bound)
				if strings.HasPrefix(v, "REGRESSION") {
					status = 3
				}
				wins, losses := pairCounts(bv, cv, d.Better == "lower")
				fmt.Fprintf(w, "   %-28s %-10s %-38s %-38s %3d/%-4d %s (losses %d)\n", d.Name, d.Unit,
					quartileText(bv), quartileText(cv), wins, min(len(bv), len(cv)), v, losses)
			}
		}
	}
	return status
}

// parentFirst counts the pairs in which the parent run started first;
// alternating pairs put it near half.
func parentFirst(b, c []result) int {
	n := 0
	for i := 0; i < len(b) && i < len(c); i++ {
		if b[i].StartedUnix < c[i].StartedUnix {
			n++
		}
	}
	return n
}

func values(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func quartileText(xs []float64) string {
	q, ok := quartiles(xs)
	if !ok {
		return fmt.Sprintf("%.6g", median(xs))
	}
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q[0], q[2])
}

// writeDigests reports, per seed, whether parent and change simulated
// the same thing: a change meant only to speed up the simulator must
// leave every digest unchanged.
func writeDigests(w io.Writer, b, c []result) {
	type pair struct{ base, change map[string]bool }
	seeds := map[uint64]*pair{}
	add := func(rs []result, change bool) {
		for _, r := range rs {
			p := seeds[r.Seed]
			if p == nil {
				p = &pair{map[string]bool{}, map[string]bool{}}
				seeds[r.Seed] = p
			}
			key := r.Digest + "/" + r.PaperDigest
			if change {
				p.change[key] = true
			} else {
				p.base[key] = true
			}
		}
	}
	add(b, false)
	add(c, true)
	keys := make([]uint64, 0, len(seeds))
	for s := range seeds {
		keys = append(keys, s)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, s := range keys {
		p := seeds[s]
		state := "identical"
		switch {
		case len(p.base) == 0 || len(p.change) == 0:
			state = "one side only"
		case len(p.base) > 1 || len(p.change) > 1:
			state = "NOT DETERMINISTIC within a side"
		case !sameKeys(p.base, p.change):
			state = "DIFFERENT (simulated results changed)"
		}
		fmt.Fprintf(w, "   digest seed=%d: %s\n", s, state)
	}
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
