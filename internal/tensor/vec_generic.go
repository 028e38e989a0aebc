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

// VecInterleave4 writes dst[4*i+r] = s_r[i] for i < len(s0): four rows
// become one run of four-wide columns, the layout of a GEMM A panel.
// dst needs 4*len(s0) elements; s1..s3 are at least as long as s0.
func VecInterleave4(dst, s0, s1, s2, s3 []float32) {
	n := len(s0)
	dst = dst[:4*n]
	s1, s2, s3 = s1[:n], s2[:n], s3[:n]
	for i, v := range s0 {
		dst[4*i], dst[4*i+1], dst[4*i+2], dst[4*i+3] = v, s1[i], s2[i], s3[i]
	}
}

// applyVec is Epilogue.Apply's vector pass; the portable build has
// none, so applyOne covers every column.
func (ep *Epilogue) applyVec(c []float32, m, n int) int { return 0 }

// depthwiseVec is DepthwiseSpan's vector kernel; the portable build has
// none, so depthwiseGo computes every channel.
func depthwiseVec(dst []float32, npix, ic, xstride int, taps []Tap, ep *Epilogue) int {
	return 0
}
