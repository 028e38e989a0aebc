//go:build amd64 && !purego

package tensor

// Roofline probes for BenchmarkRoofline (roofline_amd64.s): the peak
// rate of the instruction mixes a microkernel could issue, measured
// without one. Each arithmetic probe runs n iterations of twelve
// independent accumulator chains, acc += x·y, so latency never bounds
// it; the operands are zeros, which no x86 unit takes a slow path for.
// Nothing outside the benchmark calls them.

// probeChains is how many independent accumulators each arithmetic
// probe updates per iteration.
const probeChains = 12

// Implemented in roofline_amd64.s. mulAddProbe8 and fmaProbe8 need
// AVX (and fmaProbe8 FMA), mulAddProbe16 and fmaProbe16 AVX512F, and
// copyProbe AVX; copyProbe copies n floats, a positive multiple of 32,
// from src to dst.
func mulAddProbe8(n int)

func mulAddProbe16(n int)

func fmaProbe8(n int)

func fmaProbe16(n int)

//go:noescape
func copyProbe(dst, src *float32, n int)
