package main

import (
	"strings"
	"testing"
)

// The multitenant example runs end to end and reports a marginal time
// for each of its twelve tenants.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	tenants := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "  app-") && strings.HasSuffix(line, " s/frame") {
			tenants++
		}
	}
	if tenants != 12 {
		t.Errorf("per-tenant lines = %d, want 12:\n%s", tenants, out.String())
	}
}
