//go:build amd64 && !purego

package tensor

import "testing"

// BenchmarkRoofline reports the ceilings a GEMM microkernel on this
// machine works under, from the probes in roofline_amd64.s: GMAdd/s of
// unfused VMULPS+VADDPS at eight lanes (the AVX2 kernel's mix) and at
// sixteen (the AVX-512 kernel's), of VFMADD231PS at eight and at
// sixteen (the mixes of kernels in FMA order), and GB/s of a stream
// copy (bytes read plus bytes written, as STREAM counts them) of 256
// KiB, which fits in L2, and of 32 MiB, which does not (it may still
// fit in a large L3). A probe whose instructions this machine lacks is
// skipped.
func BenchmarkRoofline(b *testing.B) {
	const iters = 4096 // probe iterations per call
	_, _, ecx, _ := cpuid(1, 0)
	hasFMA := ecx&(1<<12) != 0
	for _, p := range []struct {
		name  string
		lanes int
		ok    bool
		probe func(int)
	}{
		{"mul-add-8", 8, cpuTier >= tierAVX2, mulAddProbe8},
		{"mul-add-16", 16, cpuTier == tierAVX512, mulAddProbe16},
		{"fma-8", 8, cpuTier >= tierAVX2 && hasFMA, fmaProbe8},
		{"fma-16", 16, cpuTier == tierAVX512, fmaProbe16},
	} {
		b.Run(p.name, func(b *testing.B) {
			if !p.ok {
				b.Skip("not on this machine")
			}
			for i := 0; i < b.N; i++ {
				p.probe(iters)
			}
			madds := float64(b.N) * iters * probeChains * float64(p.lanes)
			b.ReportMetric(madds/b.Elapsed().Seconds()/1e9, "GMAdd/s")
		})
	}
	for _, s := range []struct {
		name   string
		floats int
	}{
		{"copy-256KiB", 64 << 10},
		{"copy-32MiB", 8 << 20},
	} {
		b.Run(s.name, func(b *testing.B) {
			if cpuTier < tierAVX2 {
				b.Skip("not on this machine")
			}
			src, dst := make([]float32, s.floats), make([]float32, s.floats)
			copyProbe(&dst[0], &src[0], s.floats)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copyProbe(&dst[0], &src[0], s.floats)
			}
			b.ReportMetric(float64(b.N)*float64(8*s.floats)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
