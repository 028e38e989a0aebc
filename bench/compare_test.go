package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeReport stores a report in which every end-to-end metric of
// every workload has the given values.
func writeReport(t *testing.T, dir, name string, values []float64, failed int) string {
	t.Helper()
	rep := report{Schema: 1, Seed: 1, Seconds: runSeconds, Sets: len(values)}
	for _, w := range workloads {
		wr := workloadReport{Name: w.Name, Attempted: 1000, Failed: failed, Correct: true,
			EndToEnd: map[string]metricSeries{}, PerLayer: map[string]metricSeries{}}
		for _, d := range endToEnd {
			var s metricSeries
			for _, v := range values {
				s.add(v)
			}
			wr.EndToEnd[d.Name] = s
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", []float64{100, 100.5, 99.5}, 0)
	same := writeReport(t, dir, "same.json", []float64{101, 100, 100.5}, 0)
	// Every metric 30 % up: the lower-is-better ones got worse.
	moved := writeReport(t, dir, "moved.json", []float64{130, 130.5, 129.5}, 0)
	failing := writeReport(t, dir, "failing.json", []float64{100, 100.5, 99.5}, 3)
	noisy := writeReport(t, dir, "noisy.json", []float64{60, 130, 200}, 0)

	if err := compareReports("diff", base, same); err != nil {
		t.Errorf("diff of two alike reports: %v", err)
	}
	if err := compareReports("agree", base, same); err != nil {
		t.Errorf("agree of two alike reports: %v", err)
	}
	if err := compareReports("diff", base, moved); err == nil {
		t.Error("diff accepted a 30 % regression")
	}
	if err := compareReports("diff", base, failing); err == nil {
		t.Error("diff accepted a higher failed share")
	}
	// A spread wider than the bound resolves nothing: diff does not
	// call it worse, agree does not call it agreement.
	if err := compareReports("diff", base, noisy); err != nil {
		t.Errorf("diff called an unresolved comparison a regression: %v", err)
	}
	if err := compareReports("agree", base, noisy); err == nil {
		t.Error("agree accepted an unresolved comparison")
	}
}
