//go:build amd64 && !purego

package tensor

// Four-lane SSE element-wise kernel with a scalar tail: the small-m
// GEMM path's axpy. It applies the exact same per-element operation
// (and ordering) as the portable Go loop in vec_generic.go, so results
// are bitwise identical across builds.

// VecAxpy computes y[i] += alpha * x[i].
func VecAxpy(alpha float32, x, y []float32) {
	n := len(y)
	q := n &^ 3
	if q > 0 {
		vecAxpySSE(q, alpha, &x[0], &y[0])
	}
	for i := q; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Implemented in vec_amd64.s. n must be a positive multiple of 4.
//
//go:noescape
func vecAxpySSE(n int, alpha float32, x, y *float32)
