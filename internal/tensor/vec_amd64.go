//go:build amd64 && !purego

package tensor

// Four-lane SSE element-wise kernels with scalar tails. These are the
// vector primitives behind the depthwise convolution, the small-m GEMM
// path, and the fused epilogue. Every function applies the exact same
// per-element operation (and ordering) as the portable Go loops in
// vec_generic.go, so results are bitwise identical across builds.

// VecMulAdd computes dst[i] += a[i] * b[i].
func VecMulAdd(dst, a, b []float32) {
	n := len(dst)
	q := n &^ 3
	if q > 0 {
		vecMulAddSSE(q, &dst[0], &a[0], &b[0])
	}
	for i := q; i < n; i++ {
		dst[i] += a[i] * b[i]
	}
}

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

// VecAdd computes dst[i] += b[i].
func VecAdd(dst, b []float32) {
	n := len(dst)
	q := n &^ 3
	if q > 0 {
		vecAddSSE(q, &dst[0], &b[0])
	}
	for i := q; i < n; i++ {
		dst[i] += b[i]
	}
}

// VecScaleShift computes dst[i] = dst[i]*scale[i] + shift[i].
func VecScaleShift(dst, scale, shift []float32) {
	n := len(dst)
	q := n &^ 3
	if q > 0 {
		vecScaleShiftSSE(q, &dst[0], &scale[0], &shift[0])
	}
	for i := q; i < n; i++ {
		dst[i] = dst[i]*scale[i] + shift[i]
	}
}

// VecReLU computes dst[i] = max(0, dst[i]), propagating NaN like the
// scalar comparison does.
func VecReLU(dst []float32) {
	n := len(dst)
	q := n &^ 3
	if q > 0 {
		vecReLUSSE(q, &dst[0])
	}
	for i := q; i < n; i++ {
		if dst[i] < 0 {
			dst[i] = 0
		}
	}
}

// VecReLUCap computes dst[i] = min(cap, max(0, dst[i])) (ReLU6 when
// cap is 6), propagating NaN like the scalar comparisons do.
func VecReLUCap(dst []float32, cap float32) {
	n := len(dst)
	q := n &^ 3
	if q > 0 {
		vecReLUCapSSE(q, &dst[0], cap)
	}
	for i := q; i < n; i++ {
		v := dst[i]
		if v < 0 {
			dst[i] = 0
		} else if v > cap {
			dst[i] = cap
		}
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
func vecMulAddSSE(n int, dst, a, b *float32)

//go:noescape
func vecAxpySSE(n int, alpha float32, x, y *float32)

//go:noescape
func vecAddSSE(n int, dst, b *float32)

//go:noescape
func vecScaleShiftSSE(n int, dst, scale, shift *float32)

//go:noescape
func vecReLUSSE(n int, dst *float32)

//go:noescape
func vecReLUCapSSE(n int, dst *float32, cap float32)

//go:noescape
func vecInterleave4SSE(n int, dst, s0, s1, s2, s3 *float32)
