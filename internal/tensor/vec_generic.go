//go:build !amd64 || purego

package tensor

// Portable element-wise kernels; see vec_amd64.go for the SSE
// versions. Per-element operations and ordering are identical, and so
// are the roundings: the Go spec lets a compiler fuse x*y + z into one
// rounding (arm64, ppc64le, riscv64 do), and an explicit float32(x*y)
// forbids it, so every product below is written that way.

// VecAxpy computes y[i] += alpha * x[i].
func VecAxpy(alpha float32, x, y []float32) {
	x = x[:len(y)]
	for i := range y {
		y[i] += float32(alpha * x[i])
	}
}

// depthwiseVec is DepthwiseSpans' vector kernel; the portable build
// has none, so depthwiseGo computes every channel.
func depthwiseVec(dst []float32, ic, xstride int, x, w []float32, spans []Span, ep *Epilogue) int {
	return 0
}
