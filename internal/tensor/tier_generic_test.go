//go:build !amd64 || purego

package tensor

import "testing"

// kernelTiers lists the tiers this build can run: the portable kernel
// alone.
func kernelTiers(t *testing.T) []kernelTier {
	return []kernelTier{{"generic", func() {}}}
}

// TestKernelDispatch: a portable build has one tier, four rows high.
func TestKernelDispatch(t *testing.T) {
	if Kernel() != "generic" || tileRows() != gemmMR {
		t.Fatalf("Kernel() = %q, %d-row tiles, want generic, %d", Kernel(), tileRows(), gemmMR)
	}
}
