//go:build !amd64 || purego

package codec

// The portable build runs the generic tier alone: the Go kernels of
// dct.go and plane.go.

func fdct8x8(b *block)                       { fdctGo(b) }
func idct8x8(b *block, nz uint64)            { idctGo(b, nz) }
func liveMask(b *block, t *stepTable) uint64 { return liveGo(b, t) }

func levels(b *block, t *stepTable, nz uint64) int64 { return levelsGo(b, t, nz) }

func residual(b *block, src, pred []float32, stride, pstride, rows, cols int) {
	residualGo(b, src, pred, stride, pstride, rows, cols)
}

func reconstruct(b *block, pred, recon []float32, stride, pstride, rows, cols int) {
	reconGo(b, pred, recon, stride, pstride, rows, cols)
}

// ycbcrCells and rgbPixels are the colour conversions' vector kernels;
// the portable build has none, so toYCbCr and fromYCbCr convert every
// pixel in Go.
func ycbcrCells(rgb, lum, cb, cr []float32, w int) int { return 0 }
func rgbPixels(rgb, lum, cb, cr []float32) int         { return 0 }
