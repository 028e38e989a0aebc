package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A mistyped -experiment used to match nothing, print nothing and exit
// 0; it must fail and name the valid experiments.
func TestUnknownExperimentRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-experiment", "throughputt"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	for _, e := range table {
		if !strings.Contains(stderr.String(), e.name) {
			t.Errorf("error does not list %q: %s", e.name, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment ran something: %s", stdout.String())
	}
}

func TestDatasetsJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr strings.Builder
	args := []string{"-experiment", "datasets", "-quiet", "-json", path, "-width", "48", "-train-frames", "30", "-test-frames", "30"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Results     map[string]json.RawMessage `json:"results"`
		WallSeconds map[string]float64         `json:"wall_seconds"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	var rows []struct{ Name string }
	if err := json.Unmarshal(report.Results["datasets"], &rows); err != nil || len(rows) == 0 {
		t.Fatalf("datasets result: %v, %d rows", err, len(rows))
	}
	if len(report.Results) != 1 || len(report.WallSeconds) != 1 {
		t.Fatalf("ran more than the one experiment asked for: %d results, %d timings", len(report.Results), len(report.WallSeconds))
	}
	if !strings.Contains(stdout.String(), "=== datasets (Figure 3b) ===") {
		t.Fatalf("no table header on stdout: %s", stdout.String())
	}
}
