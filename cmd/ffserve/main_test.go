package main

import (
	"strings"
	"testing"

	"repro/internal/vision"
)

// The flag and configuration errors exit before the controller opens
// or anything listens.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
		says string // on stderr
	}{
		{"help", []string{"-h"}, 0, "-listen"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"bad slo spec", []string{"-slo", "extract_p99_ms"}, 1, "bad -slo spec"},
		{"zero interval", []string{"-interval", "0"}, 2, "-interval"},
		{"negative interval", []string{"-interval", "-1s"}, 2, "-interval"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("exit %d, want %d: %s", code, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.says) {
				t.Fatalf("stderr does not mention %q: %s", tc.says, stderr.String())
			}
		})
	}
}

// A fetch's bits that do not divide evenly over its frames must still
// all reach the datacenter archive's accounting.
func TestContextArchiverKeepsEveryBit(t *testing.T) {
	c := newContextArchiver(t.TempDir(), 0)
	defer c.Close()
	frames := []*vision.Image{vision.NewImage(8, 4), vision.NewImage(8, 4), vision.NewImage(8, 4)}
	if err := c.Save("edge-1", "cam0", frames, 10); err != nil {
		t.Fatal(err)
	}
	if got := c.stores["edge-1/cam0"].Stats().ArchivedBits; got != 10 {
		t.Fatalf("archived %d bits, want 10", got)
	}
}
