//go:build amd64 && !purego

package codec

import (
	"testing"

	"repro/internal/tensor"
)

// codecTiers lists the tiers this machine can run, generic first; use()
// makes the codec run that tier until the test or benchmark ends.
func codecTiers(tb testing.TB) []codecTier {
	detected := cpuTier
	tb.Cleanup(func() { cpuTier = detected })
	var tiers []codecTier
	for t := tierGeneric; t <= tierOf(tensor.Kernel()); t++ {
		tiers = append(tiers, codecTier{t.String(), func() { cpuTier = t }})
	}
	return tiers
}

// TestCodecDispatch checks that the codec runs, from start-up, the
// tier internal/tensor's CPUID probe affords: AVX-512 with its avx512
// GEMM tier, AVX2 with avx2, the generic kernels with generic.
func TestCodecDispatch(t *testing.T) {
	for kernel, want := range map[string]tier{"avx512": tierAVX512, "avx2": tierAVX2, "generic": tierGeneric} {
		if got := tierOf(kernel); got != want {
			t.Fatalf("tierOf(%q) = %v, want %v", kernel, got, want)
		}
	}
	if want := tierOf(tensor.Kernel()); cpuTier != want {
		t.Fatalf("codec tier %v at start-up, GEMM tier %q affords %v", cpuTier, tensor.Kernel(), want)
	}
	t.Logf("dispatch: codec runs %q", cpuTier)
}
