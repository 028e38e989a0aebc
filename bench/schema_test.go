package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables in
// schema.go: the file is what the driver reads, the tables are what the
// program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from schema.go; regenerate it with `bench/run.sh -print-benchmark-json > BENCHMARK.json`")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}

func TestSchemaLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", runSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	known := map[string]bool{}
	for _, w := range workloads {
		name("workload", w.Name)
		known[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.OpsPerSecond <= 0 || w.Warmup < 200 {
			t.Errorf("workload %s: needs a frozen rate and a warm-up of at least 200 operations", w.Name)
		}
	}
	metric := func(kind string, m metricDef) {
		name(kind+" metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if len(m.On) == 0 {
			t.Errorf("%s: lists no workload", m.Name)
		}
		for _, w := range m.On {
			if !known[w] {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		metric("end-to-end", m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if len(m.On) != len(workloads) {
			t.Errorf("%s: an end-to-end metric is reported on every workload", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range perLayer {
		metric("per-layer", m)
		if m.Moves == "" {
			t.Errorf("%s: names no end-to-end metric it should move", m.Name)
		}
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v; want 1, 4.5", q1, q3)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(4)
	root := tr.begin("frame", -1, 7, 0)
	child := tr.begin("extract", root, 7, 0)
	tr.end(child)
	tr.end(root)
	tr.spans[root].start, tr.spans[root].end = 0, 100
	tr.spans[child].start, tr.spans[child].end = 10, 70
	self, n := tr.selfTimes()
	if self["frame"] != 40 || self["extract"] != 60 || n["frame"] != 1 {
		t.Errorf("self times %v (counts %v), want frame 40, extract 60", self, n)
	}
	var off *tracer
	off.end(off.begin("x", -1, 0, 0)) // a nil tracer records nothing
	if off.count() != 0 {
		t.Error("nil tracer counted spans")
	}
}

func TestSlicerCutsEqualParts(t *testing.T) {
	s := newSlicer(1200, numParts, true)
	for i := 0; i < 1200; i++ {
		s.tick()
	}
	if len(s.raw) != numParts || len(s.bursts) != numParts+1 || s.ends[numParts-1] != 1200 {
		t.Fatalf("%d parts ending at %v between %d bursts, want %d ending at 1200 between %d", len(s.raw), s.ends, len(s.bursts), numParts, numParts+1)
	}
	// The CPU runs at reference speed until the middle of the fourth
	// part and at twice that from then on; one burst in the slow
	// stretch misread it as fast and one in the fast stretch as slow.
	for k := range s.bursts {
		s.bursts[k] = 2
	}
	s.bursts[0], s.bursts[1], s.bursts[2], s.bursts[3], s.bursts[4] = 1, 1, 2, 1, 1
	s.bursts[12] = 1
	for i := range s.raw {
		s.raw[i] = 100
	}
	speeds, rates := s.speeds(), s.rates()
	for i, want := range []float64{1, 1, 1, 1.5, 2} {
		if speeds[i] != want {
			t.Errorf("part %d at speed %v, want %v", i, speeds[i], want)
		}
	}
	if speeds[11] != 2 || speeds[12] != 2 || rates[0] != 100 || rates[12] != 50 {
		t.Errorf("speeds %v, rates %v: the misread bursts were not smoothed away", speeds, rates)
	}
	// One sample per two operations: sample 24 covers the first part's
	// last two operations, sample 75 the fourth part's first two.
	lat := make([]time.Duration, 600)
	for i := range lat {
		lat[i] = time.Millisecond
	}
	ref := s.atReference(lat, 2)
	if ref[24] != time.Millisecond || ref[75] != 1500*time.Microsecond || ref[599] != 2*time.Millisecond {
		t.Errorf("samples scaled to %v, %v, %v; want 1ms, 1.5ms, 2ms", ref[24], ref[75], ref[599])
	}
}
