//go:build !amd64 || purego

package tensor

import "testing"

// kernelTiers lists the tiers this build can run: the portable kernel
// alone.
func kernelTiers(tb testing.TB) []kernelTier {
	return []kernelTier{{"generic", func() {}}}
}

// TestKernelDispatch: a portable build has one tier, a 4×8 tile.
func TestKernelDispatch(t *testing.T) {
	if Kernel() != "generic" || tileRows() != gemmMR || tileCols() != gemmNR {
		t.Fatalf("Kernel() = %q, %d×%d tiles, want generic, %d×%d", Kernel(), tileRows(), tileCols(), gemmMR, gemmNR)
	}
}
