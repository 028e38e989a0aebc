//go:build !amd64 || purego

package tensor

import "testing"

// kernelTiers lists the tiers this build can run: the portable kernel
// alone.
func kernelTiers(t *testing.T) []kernelTier {
	return []kernelTier{{"generic", func() {}}}
}

// TestKernelDispatch: a portable build has one tier and no eight-row
// walk.
func TestKernelDispatch(t *testing.T) {
	if Kernel() != "generic" {
		t.Fatalf("Kernel() = %q, want generic", Kernel())
	}
	if got := gemmPanelPairs(9, 8, 3, make([]float32, 36), make([]float32, 24), make([]float32, 72), nil); got != 0 {
		t.Fatalf("%d rows took an eight-row tier the portable build does not have", got)
	}
}
