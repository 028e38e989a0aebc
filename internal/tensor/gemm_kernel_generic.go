//go:build !amd64 || purego

package tensor

// Kernel names the GEMM microkernel tier this process runs: "avx2" or
// "sse" on amd64, "generic" for the portable Go kernel.
func Kernel() string { return "generic" }

// gemmPanelPairs is the eight-row tier of GemmPanels; the portable
// build has none, so no rows are completed.
func gemmPanelPairs(m, n, k int, ap, bp, c []float32, ep *Epilogue) int { return 0 }

// kern8x8 is the eight-row tile as two 4×8 tiles, row r stored raw at
// c[r*ldc:]. gemmRaggedBlock names it for a ragged pair, which the
// portable build never has: it walks no panel pairs.
func kern8x8(k int, ap, bp, c []float32, ldc int) {
	kern4x8(k, ap[:gemmMR*k], bp, c, c[ldc:], c[2*ldc:], c[3*ldc:])
	kern4x8(k, ap[gemmMR*k:], bp, c[4*ldc:], c[5*ldc:], c[6*ldc:], c[7*ldc:])
}

// kern4x8 is the portable microkernel: one 4×8 tile from packed panels
// (A interleaved by 4 rows, B by 8 columns), stored raw into the four
// C rows. Each output element accumulates over p sequentially, with the
// product rounded before the add (float32(a*b) keeps a compiler that
// may fuse x*y + z from doing so), so the result is bitwise identical to
// the amd64 kernels on every target.
func kern4x8(k int, ap, bp, c0, c1, c2, c3 []float32) {
	var t0, t1, t2, t3 [gemmNR]float32
	for p := 0; p < k; p++ {
		av := ap[p*gemmMR : p*gemmMR+gemmMR : p*gemmMR+gemmMR]
		bv := bp[p*gemmNR : p*gemmNR+gemmNR : p*gemmNR+gemmNR]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		for j := 0; j < gemmNR; j++ {
			b := bv[j]
			t0[j] += float32(a0 * b)
			t1[j] += float32(a1 * b)
			t2[j] += float32(a2 * b)
			t3[j] += float32(a3 * b)
		}
	}
	copy(c0[:gemmNR], t0[:])
	copy(c1[:gemmNR], t1[:])
	copy(c2[:gemmNR], t2[:])
	copy(c3[:gemmNR], t3[:])
}
