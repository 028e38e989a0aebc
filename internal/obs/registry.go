package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. All methods are
// lock-free and allocation-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value. All methods are lock-free
// and allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of counters, gauges, and histograms.
// Get-or-create registration takes a lock; the returned instruments
// are lock-free, so hot paths hold them directly and never touch the
// registry per observation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sketches map[string]*ScoreSketch
	help     map[string]string
}

// newRegistry constructs an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		sketches: make(map[string]*ScoreSketch),
		help:     make(map[string]string),
	}
}

// Describe registers HELP text for the named instrument.
// writePrometheus emits it as a "# HELP" line ahead of the "# TYPE"
// line, which metric linters expect. Describing an instrument is
// optional and idempotent; the last text registered wins.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// counter returns the named counter, creating it on first use. Names
// should be valid Prometheus identifiers ([a-zA-Z_][a-zA-Z0-9_]*).
func (r *Registry) counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// ShardGauge returns the gauge for one control-plane shard's metric,
// named "ff_fleet_shard_<shard>_<name>" — the per-shard load/latency
// surface a sharded fleet controller exports (node counts, ledger
// sizes, heartbeat-gap tails). The shard set is fixed for the life of
// a controller process, so the indices run from 0 to the shard count
// gauge minus one.
func (r *Registry) ShardGauge(shard int, name string) *Gauge {
	return r.Gauge(fmt.Sprintf("ff_fleet_shard_%d_%s", shard, name))
}

// histogram returns the named histogram, creating it on first use.
func (r *Registry) histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// sketch returns the named score sketch, creating it on first use.
// Sketches render on /metrics as Prometheus histograms with bucket
// boundaries at the 32 bin edges over [0, 1].
func (r *Registry) sketch(name string) *ScoreSketch {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sketches[name]
	if !ok {
		s = &ScoreSketch{}
		r.sketches[name] = s
	}
	return s
}

// Metric is one named value in a registry snapshot.
type Metric struct {
	// Name is the registered name; histogram entries carry a
	// "/p50"-style suffix per exported quantile.
	Name string
	// Value is the current reading (ns for histogram quantiles).
	Value float64
}

// Snapshot returns every registered metric as a sorted flat list —
// counters and gauges by value, histograms expanded into count, mean,
// and tail quantiles.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Metric
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Value: float64(g.Value())})
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		mean := 0.0
		if s.Count > 0 {
			mean = float64(s.Sum) / float64(s.Count)
		}
		out = append(out,
			Metric{Name: name + "/count", Value: float64(s.Count)},
			Metric{Name: name + "/mean", Value: mean},
			Metric{Name: name + "/p50", Value: float64(s.Quantile(0.50))},
			Metric{Name: name + "/p95", Value: float64(s.Quantile(0.95))},
			Metric{Name: name + "/p99", Value: float64(s.Quantile(0.99))},
			Metric{Name: name + "/max", Value: float64(s.Max)},
		)
	}
	for name, sk := range r.sketches {
		s := sk.Snapshot()
		out = append(out,
			Metric{Name: name + "/count", Value: float64(s.Count)},
			Metric{Name: name + "/mean", Value: s.Mean()},
			Metric{Name: name + "/pass_rate", Value: s.PassRate()},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, latency histograms as summaries with quantile labels, and
// score sketches as histograms with bucket boundaries at the bin
// edges. Instruments with Describe'd help text get a "# HELP" line
// ahead of their "# TYPE" line. Output is sorted by name for
// deterministic scrapes.
func (r *Registry) writePrometheus(w io.Writer) error {
	r.mu.Lock()
	cnames := sortedKeys(r.counters)
	gnames := sortedKeys(r.gauges)
	hnames := sortedKeys(r.hists)
	knames := sortedKeys(r.sketches)
	counters := make(map[string]int64, len(cnames))
	gauges := make(map[string]int64, len(gnames))
	hists := make(map[string]HistSnapshot, len(hnames))
	sketches := make(map[string]SketchSnapshot, len(knames))
	help := make(map[string]string, len(r.help))
	for _, n := range cnames {
		counters[n] = r.counters[n].Value()
	}
	for _, n := range gnames {
		gauges[n] = r.gauges[n].Value()
	}
	for _, n := range hnames {
		hists[n] = r.hists[n].Snapshot()
	}
	for _, n := range knames {
		sketches[n] = r.sketches[n].Snapshot()
	}
	for n, h := range r.help {
		help[n] = h
	}
	r.mu.Unlock()

	writeHelp := func(n string) error {
		h, ok := help[n]
		if !ok {
			return nil
		}
		_, err := fmt.Fprintf(w, "# HELP %s %s\n", n, promEscapeHelp(h))
		return err
	}
	for _, n := range cnames {
		if err := writeHelp(n); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, counters[n]); err != nil {
			return err
		}
	}
	for _, n := range gnames {
		if err := writeHelp(n); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, gauges[n]); err != nil {
			return err
		}
	}
	for _, n := range hnames {
		if err := writeHelp(n); err != nil {
			return err
		}
		s := hists[n]
		_, err := fmt.Fprintf(w,
			"# TYPE %s summary\n%s{quantile=\"0.5\"} %d\n%s{quantile=\"0.95\"} %d\n%s{quantile=\"0.99\"} %d\n%s_sum %d\n%s_count %d\n",
			n, n, s.Quantile(0.50), n, s.Quantile(0.95), n, s.Quantile(0.99), n, s.Sum, n, s.Count)
		if err != nil {
			return err
		}
	}
	for _, n := range knames {
		if err := writeHelp(n); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		s := sketches[n]
		var cum uint64
		for b := 0; b < SketchBins; b++ {
			cum += s.Bins[b]
			edge := float64(b+1) / SketchBins
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", n, edge, cum); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n%s_passes %d\n",
			n, s.Count, n, float64(s.Sum)/SketchUnit, n, s.Count, n, s.Passes)
		if err != nil {
			return err
		}
	}
	return nil
}

// promEscapeHelp escapes help text per the exposition format:
// backslashes and line feeds only.
func promEscapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
