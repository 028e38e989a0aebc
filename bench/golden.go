package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSet maps "workload/seed/ops" to the digest of the outputs a
// sequential reference produced for those inputs: the upload sequence
// (MC name, event ID, start, end, bits) on workloads that upload, the
// score sketches on the two that do not. A run whose key is recorded
// must reproduce the digest; other seeds and lengths are checked
// against invariants and the in-run reference only.
type goldenSet map[string]string

func goldenKey(workload string, seed int64, ops int) string {
	return fmt.Sprintf("%s/%d/%d", workload, seed, ops)
}

func goldenPath(benchDir string) string {
	return filepath.Join(testdataDir(benchDir), "golden.json")
}

func loadGolden(benchDir string) (goldenSet, error) {
	raw, err := os.ReadFile(goldenPath(benchDir))
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	g := goldenSet{}
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

func (g goldenSet) write(benchDir string) error {
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(benchDir), append(raw, '\n'), 0o644)
}

// check returns a complaint when a digest is recorded for the key and
// differs from got.
func (g goldenSet) check(workload string, seed int64, ops int, got string) string {
	want, ok := g[goldenKey(workload, seed, ops)]
	if !ok || want == got {
		return ""
	}
	return fmt.Sprintf("outputs digest %s differs from the golden %s", got, want)
}
