package tensor

// kernTileGo is the portable microkernel, the GEMM tile of the generic
// tier on every target: one 4×8 tile — the four rows of a whose bases
// are in offs, against the B panel bp (eight floats of each 16-float
// k-step, as PackB pairs panels) — with ep applied, its per-column
// vectors read from column col on, stored row r at c[r*ldc:]. Each
// output element accumulates over p sequentially, segment by segment,
// with the product rounded before the add (float32(a*b) keeps a
// compiler that may fuse x*y + z from doing so), and then takes the
// epilogue in applyOne's order, so the result is bitwise identical to
// the amd64 assembly kernels.
func kernTileGo(a *ARows, offs *[tileMax]int, bp, c []float32, ldc int, ep *Epilogue, col int) {
	var t [gemmMR][gemmNR]float32
	p := 0
	for s := 0; s < a.Segs; s++ {
		seg := s * a.Pitch
		a0 := a.Data[offs[0]+seg : offs[0]+seg+a.Len]
		a1 := a.Data[offs[1]+seg : offs[1]+seg+a.Len]
		a2 := a.Data[offs[2]+seg : offs[2]+seg+a.Len]
		a3 := a.Data[offs[3]+seg : offs[3]+seg+a.Len]
		for i, x0 := range a0 {
			x1, x2, x3 := a1[i], a2[i], a3[i]
			bv := bp[2*gemmNR*p : 2*gemmNR*p+gemmNR : 2*gemmNR*p+gemmNR]
			for j := 0; j < gemmNR; j++ {
				b := bv[j]
				t[0][j] += float32(x0 * b)
				t[1][j] += float32(x1 * b)
				t[2][j] += float32(x2 * b)
				t[3][j] += float32(x3 * b)
			}
			p++
		}
	}
	for r := range t {
		row := c[r*ldc : r*ldc+gemmNR]
		for j, v := range t[r] {
			row[j] = ep.applyOne(v, col+j)
		}
	}
}
