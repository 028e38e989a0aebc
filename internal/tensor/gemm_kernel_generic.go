//go:build !amd64 || purego

package tensor

// Kernel names the GEMM microkernel tier this process runs: "avx512"
// or "avx2" on amd64 with those instructions, "generic" for the
// portable Go kernel.
func Kernel() string { return "generic" }

// tileRows is the height of the tile GemmInPlace walks: the portable
// kernel's four rows.
func tileRows() int { return gemmMR }

// tileCols is the width of the tile GemmInPlace walks: one B panel.
func tileCols() int { return gemmNR }

// kernEpilogue is an Epilogue as kernTile takes it: the portable
// kernel applies it in Go.
type kernEpilogue = Epilogue

// kernel fills k, which is zero, with a copy of ep; a nil ep applies
// nothing. A copy, not ep itself: storing ep through k would make
// every caller's epilogue escape to the heap.
func (ep *Epilogue) kernel(k *kernEpilogue, n int) {
	if ep != nil {
		*k = *ep
	}
}

// kernTile computes one tile on the portable kernel (kernTileGo).
func kernTile(a *ARows, offs *[tileMax]int, bp, c []float32, ldc int, ep *kernEpilogue, col int) {
	kernTileGo(a, offs, bp, c, ldc, ep, col)
}

// depthwiseVec is DepthwiseSpans' vector kernel; the portable build
// has none, so depthwiseGo computes every channel.
func depthwiseVec(dst []float32, ic, xstride int, x, w []float32, spans []Span, ep *Epilogue) int {
	return 0
}

// noiseFast is NoisePixels' fast path: the portable build runs the
// generic tier.
func noiseFast(pix []float32, words []uint64, gain, std float32) int {
	return noiseGo(pix, words, gain, std)
}
