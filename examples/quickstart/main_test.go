package main

import (
	"strings"
	"testing"
)

// The quickstart runs end to end: every frame is processed and the
// permissive threshold uploads at least one segment.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "processed 300 frames") {
		t.Errorf("missing frame count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "upload:") {
		t.Errorf("no upload line:\n%s", out.String())
	}
}
