//go:build amd64 && !purego

package tensor

// Four-lane SSE element-wise kernels with scalar tails: the small-m
// GEMM path's axpy and the A-panel interleave. Every function applies
// the exact same per-element operation (and ordering) as the portable
// Go loops in vec_generic.go, so results are bitwise identical across
// builds.

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

// VecInterleave4 writes dst[4*i+r] = s_r[i] for i < len(s0): four rows
// become one run of four-wide columns, the layout of a GEMM A panel.
// dst needs 4*len(s0) elements; s1..s3 are at least as long as s0.
func VecInterleave4(dst, s0, s1, s2, s3 []float32) {
	n := len(s0)
	dst = dst[:4*n]
	s1, s2, s3 = s1[:n], s2[:n], s3[:n]
	q := n &^ 3
	if q > 0 {
		vecInterleave4SSE(q, &dst[0], &s0[0], &s1[0], &s2[0], &s3[0])
	}
	for i := q; i < n; i++ {
		dst[4*i], dst[4*i+1], dst[4*i+2], dst[4*i+3] = s0[i], s1[i], s2[i], s3[i]
	}
}

// Implemented in vec_amd64.s. n must be a positive multiple of 4.
//
//go:noescape
func vecAxpySSE(n int, alpha float32, x, y *float32)

//go:noescape
func vecInterleave4SSE(n int, dst, s0, s1, s2, s3 *float32)
