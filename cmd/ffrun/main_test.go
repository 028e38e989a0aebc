package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/mobilenet"
)

// TestOfflineRun drives the local-only path end to end: an untrained
// MC from -weights, 60 frames through the agent's synchronous
// ProcessFrame, and the report on stdout.
func TestOfflineRun(t *testing.T) {
	cfg := dataset.Roadway(48, 60, 2)
	// Same architecture as the base DNN run builds; the MC only needs
	// its shapes, not its pretrained weights.
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 1 + 100})
	mc, err := filter.NewMC(filter.Spec{Name: "untrained", Arch: filter.LocalizedBinary, Hidden: 8, Seed: 3}, base, cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	weights := filepath.Join(t.TempDir(), "mc.weights")
	f, err := os.Create(weights)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr strings.Builder
	args := []string{"-width", "48", "-frames", "60", "-weights", weights, "-threshold", "0.5"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "frames processed   60\n") {
		t.Fatalf("no 'frames processed   60' line:\n%s", stdout.String())
	}
}

// Without -weights the stream has no MC to run unless a controller
// deploys one, so an offline run must refuse to start.
func TestMissingWeightsRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-width", "48", "-frames", "60"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-weights is required") {
		t.Fatalf("error does not name -weights: %s", stderr.String())
	}
}

// A frame over the archive's one-record limit is refused before the
// dataset is generated or the base DNN pretrained, not when the
// archive opens.
func TestOversizeArchiveFramesRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	args := []string{"-width", "1920", "-frames", "60", "-weights", "unused", "-archive-dir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "too large to archive") {
		t.Fatalf("error does not name the archive limit: %s", stderr.String())
	}
}
