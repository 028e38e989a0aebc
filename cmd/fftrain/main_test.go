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

// TestTrainSavesLoadableMC runs the whole offline step at a small
// scale: pretraining (batch-norm, global pool and dense head trained
// eagerly), then one epoch of the localized MC, then the save. The
// output must load against a base DNN of the same architecture.
func TestTrainSavesLoadableMC(t *testing.T) {
	out := filepath.Join(t.TempDir(), "mc.weights")
	var stdout, stderr strings.Builder
	args := []string{"-width", "48", "-frames", "60", "-epochs", "1", "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "saved weights to "+out) {
		t.Fatalf("no 'saved weights' line:\n%s", stdout.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg := dataset.Roadway(48, 60, 1)
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 1 + 100})
	mc, err := filter.LoadMC(f, base, cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.Spec().Name; got != "roadway-localized" {
		t.Fatalf("loaded MC %q, want roadway-localized", got)
	}
}

// Unknown -arch and -dataset values must fail before any training, with
// a message naming the value.
func TestUnknownArchAndDatasetRejected(t *testing.T) {
	for _, tc := range []struct{ args []string }{
		{[]string{"-arch", "detektor"}},
		{[]string{"-dataset", "roadwya"}},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code == 0 {
			t.Fatalf("%v exited 0", tc.args)
		}
		if !strings.Contains(stderr.String(), `unknown`) || !strings.Contains(stderr.String(), tc.args[1]) {
			t.Fatalf("%v: error does not name the value: %q", tc.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v started work: %s", tc.args, stdout.String())
		}
	}
}
