//go:build amd64 && !purego

package obs

import "repro/internal/tensor"

// On amd64 the batched logarithm runs the eight-lane AVX-512 kernel
// (log_amd64.s) on a CPU whose GEMM tier internal/tensor's CPUID probe
// selected as avx512, and math.Log value by value on any other. Values
// the kernel leaves (a block holding a zero, a negative, +Inf or a NaN)
// go to math.Log too, whose special cases are the reference.

// logAVX512 reports whether logs runs the AVX-512 kernel. It is
// written only here and by tests.
var logAVX512 = tensor.Kernel() == "avx512"

// logs replaces each x[i] by math.Log(x[i]), bit for bit, on the tier
// this process runs.
func logs(x []float64) {
	if !logAVX512 {
		mathLogs(x)
		return
	}
	for len(x) > 0 {
		x = x[logsAVX512(x):]
		n := min(8, len(x)) // the block the kernel stopped at, if any
		mathLogs(x[:n])
		x = x[n:]
	}
}

// logsAVX512 is the AVX-512 kernel: it replaces the values of x up to
// the first block of eight holding a special value and returns how
// many it replaced.
//
//go:noescape
func logsAVX512(x []float64) int
