package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans are recorded only by the benchmark's own code, around its calls
// into public entry points; a synthetic span is laid out from durations
// the program already reports (HostProf phases), not from timestamps.
type span struct {
	Run       string `json:"run"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Ops       uint64 `json:"ops,omitempty"`
	Allocs    uint64 `json:"allocs,omitempty"`
	SimCycles uint64 `json:"sim_cycles,omitempty"`
	Synthetic bool   `json:"synthetic,omitempty"`

	tr      *tracer
	allocs0 uint64
}

// tracer keeps every span of one traced run in memory; they are written
// out once the run ends. A nil *tracer records nothing, so the untraced
// path costs one nil check per span site.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []*span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// heapAllocs reads the cumulative count of Go heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (t *tracer) open(parent *span, name, layer string, start time.Time) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{Run: t.run, ID: len(t.spans) + 1, Name: name, Layer: layer,
		StartNs: start.Sub(t.epoch).Nanoseconds(), tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// begin opens a span under parent (nil for a root).
func (t *tracer) begin(parent *span, name, layer string) *span {
	if t == nil {
		return nil
	}
	a := heapAllocs()
	s := t.open(parent, name, layer, time.Now())
	s.allocs0 = a
	return s
}

// end closes the span, recording how many operations it covered and the
// simulated cycles they took.
func (s *span) end(ops, simCycles uint64) {
	if s == nil {
		return
	}
	now := time.Now()
	a := heapAllocs()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.EndNs = now.Sub(s.tr.epoch).Nanoseconds()
	s.Ops, s.SimCycles = ops, simCycles
	s.Allocs = a - s.allocs0
}

// synth adds a closed synthetic span of the given extent.
func (t *tracer) synth(parent *span, name, layer string, start time.Time, d time.Duration, ops uint64) *span {
	if t == nil {
		return nil
	}
	s := t.open(parent, name, layer, start)
	s.EndNs = s.StartNs + d.Nanoseconds()
	s.Ops, s.Synthetic = ops, true
	return s
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, len(t.spans))
	for i, s := range t.spans {
		out[i] = *s
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (parallel workers) and may stick out of the parent; only the union of
// their intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered int64
		cur := s.StartNs // everything before cur is already counted
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// opRow aggregates every span of one name: the per-layer table row.
type opRow struct {
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	Spans     int    `json:"spans"`
	Ops       uint64 `json:"ops"`
	TotalNs   int64  `json:"total_ns"`
	SelfNs    int64  `json:"self_ns"`
	Allocs    uint64 `json:"allocs"`
	SimCycles uint64 `json:"sim_cycles"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

func (r opRow) nsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.TotalNs) / float64(r.Ops)
}

func (r opRow) allocsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Allocs) / float64(r.Ops)
}

func (r opRow) cyclesPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.SimCycles) / float64(r.Ops)
}

// opTable folds spans into one row per span name, sorted by layer then
// name.
func opTable(spans []span) []opRow {
	self := selfTimes(spans)
	by := map[string]*opRow{}
	for _, s := range spans {
		r := by[s.Name]
		if r == nil {
			r = &opRow{Name: s.Name, Layer: s.Layer, Synthetic: s.Synthetic}
			by[s.Name] = r
		}
		r.Spans++
		r.Ops += s.Ops
		r.TotalNs += s.EndNs - s.StartNs
		r.SelfNs += self[s.ID]
		r.Allocs += s.Allocs
		r.SimCycles += s.SimCycles
	}
	rows := make([]opRow, 0, len(by))
	for _, r := range by {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// row returns the named row (zero when absent).
func row(rows []opRow, name string) opRow {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return opRow{}
}

// writeOpTable renders the per-layer table: one row per span name, then
// self time summed per layer.
func writeOpTable(w io.Writer, rows []opRow) {
	fmt.Fprintf(w, "%-10s %-28s %6s %10s %12s %12s %12s %10s %12s\n",
		"layer", "span", "count", "ops", "total_ms", "self_ms", "ns/op", "allocs/op", "simcyc/op")
	layers := map[string]int64{}
	var order []string
	synthetic := false
	for _, r := range rows {
		synthetic = synthetic || r.Synthetic
		name := r.Name
		if r.Synthetic {
			name += "*"
		}
		cyc := "-"
		if r.SimCycles > 0 {
			cyc = fmt.Sprintf("%.1f", r.cyclesPerOp())
		}
		allocs := "-"
		if !r.Synthetic {
			allocs = fmt.Sprintf("%.2f", r.allocsPerOp())
		}
		fmt.Fprintf(w, "%-10s %-28s %6d %10d %12.3f %12.3f %12.1f %10s %12s\n",
			r.Layer, name, r.Spans, r.Ops, float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6,
			r.nsPerOp(), allocs, cyc)
		if _, seen := layers[r.Layer]; !seen {
			order = append(order, r.Layer)
		}
		layers[r.Layer] += r.SelfNs
	}
	fmt.Fprintf(w, "self time by layer:")
	for _, l := range order {
		fmt.Fprintf(w, "  %s %.3f ms", l, float64(layers[l])/1e6)
	}
	fmt.Fprintln(w)
	if synthetic {
		fmt.Fprintln(w, "(* synthetic: laid out from fleet.Result.HostProf phase durations, not timestamps; allocs not measured)")
	}
}

// writeSpans writes the span list as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
