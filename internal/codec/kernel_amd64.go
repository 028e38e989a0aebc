//go:build amd64 && !purego

package codec

import (
	"math/bits"

	"repro/internal/tensor"
)

// The amd64 build carries two vector tiers beside the generic Go
// kernels: AVX2, four float64 lanes a YMM register, a block row in a
// pair of them (codec_avx2_amd64.s), and AVX-512, eight lanes a ZMM
// register, a block row in one (codec_avx512_amd64.s). The tier is the
// one internal/tensor's CPUID probe selected for the GEMM, so a CPU
// without AVX2 runs the generic kernels in both packages. Every vector
// kernel keeps the exact-order rule of dct.go — the lanes run across
// outputs, never across a sum, and every product is a VMULPD rounded
// before its VADDPD, never an FMA — so each tier's output is bit for
// bit the generic tier's.

// tier is a codec kernel tier.
type tier uint8

const (
	tierGeneric tier = iota
	tierAVX2
	tierAVX512
)

func (t tier) String() string {
	return [...]string{tierGeneric: "generic", tierAVX2: "avx2", tierAVX512: "avx512"}[t]
}

// cpuTier is the tier this process runs. It is written only here and
// by tests.
var cpuTier = tierOf(tensor.Kernel())

// tierOf maps a GEMM microkernel tier to the codec tier it affords.
func tierOf(kernel string) tier {
	switch kernel {
	case "avx512":
		return tierAVX512
	case "avx2":
		return tierAVX2
	}
	return tierGeneric
}

// fdct8x8 computes the forward 2-D DCT of a block in place; see fdctGo.
func fdct8x8(b *block) {
	switch cpuTier {
	case tierAVX512:
		fdctAVX512(b)
	case tierAVX2:
		fdctAVX2(b)
	default:
		fdctGo(b)
	}
}

// idct8x8 computes the inverse 2-D DCT of the coefficients nz names,
// in place; see idctGo. The vector kernels load each row with the
// positions nz does not name zeroed, so they read no junk either.
func idct8x8(b *block, nz uint64) {
	switch cpuTier {
	case tierAVX512:
		idctAVX512(b, nz)
	case tierAVX2:
		idctAVX2(b, nz)
	default:
		idctGo(b, nz)
	}
}

// liveMask returns the raster-order set of the nonzero levels of a
// transformed block; see liveGo.
func liveMask(b *block, t *stepTable) uint64 {
	switch cpuTier {
	case tierAVX512:
		return liveAVX512(b, &t.half)
	case tierAVX2:
		return liveAVX2(b, &t.half)
	}
	return liveGo(b, t)
}

// levels quantizes and dequantizes the coefficients nz names; see
// levelsGo. The vector kernels return the sum of the levels' biased
// exponent fields, 1022 more per level than its bit length.
func levels(b *block, t *stepTable, nz uint64) int64 {
	switch cpuTier {
	case tierAVX512:
		return levelsAVX512(b, &t.step, nz) - 1022*int64(bits.OnesCount64(nz))
	case tierAVX2:
		return levelsAVX2(b, &t.step, nz) - 1022*int64(bits.OnesCount64(nz))
	}
	return levelsGo(b, t, nz)
}

// residual fills b with a block's residuals; see residualGo. The
// vector kernels take blocks a whole row wide.
func residual(b *block, src, pred []float32, stride, pstride, rows, cols int) {
	if cols < blockSize || cpuTier == tierGeneric {
		residualGo(b, src, pred, stride, pstride, rows, cols)
		return
	}
	_ = src[(rows-1)*stride+blockSize-1]
	_ = pred[(rows-1)*pstride+blockSize-1]
	if cpuTier == tierAVX512 {
		residualAVX512(b, &src[0], &pred[0], stride, pstride, rows)
	} else {
		residualAVX2(b, &src[0], &pred[0], stride, pstride, rows)
	}
}

// reconstruct writes a block's reconstruction; see reconGo. The vector
// kernels take blocks a whole row wide.
func reconstruct(b *block, pred, recon []float32, stride, pstride, rows, cols int) {
	if cols < blockSize || cpuTier == tierGeneric {
		reconGo(b, pred, recon, stride, pstride, rows, cols)
		return
	}
	_ = recon[(rows-1)*stride+blockSize-1]
	_ = pred[(rows-1)*pstride+blockSize-1]
	if cpuTier == tierAVX512 {
		reconAVX512(b, &pred[0], &recon[0], stride, pstride, rows)
	} else {
		reconAVX2(b, &pred[0], &recon[0], stride, pstride, rows)
	}
}

// laneMask[m] is all ones in lane i where bit i of m is set: the AVX2
// inverse transform ANDs a row half with the entry of its four bits of
// nz.
var laneMask = func() (t [16][4]uint64) {
	for m := range t {
		for i := range t[m] {
			if m>>i&1 != 0 {
				t[m][i] = ^uint64(0)
			}
		}
	}
	return t
}()

// Implemented in codec_avx2_amd64.s and codec_avx512_amd64.s. half and
// step are a stepTable's; src, pred and recon point at a block's first
// sample, its rows stride (pstride for pred) floats apart, rows in
// [1, 8], and the kernels read and write eight floats of each row.
//
//go:noescape
func fdctAVX2(b *block)

//go:noescape
func fdctAVX512(b *block)

//go:noescape
func idctAVX2(b *block, nz uint64)

//go:noescape
func idctAVX512(b *block, nz uint64)

//go:noescape
func liveAVX2(b, half *block) uint64

//go:noescape
func liveAVX512(b, half *block) uint64

//go:noescape
func levelsAVX2(b, step *block, nz uint64) int64

//go:noescape
func levelsAVX512(b, step *block, nz uint64) int64

//go:noescape
func residualAVX2(b *block, src, pred *float32, stride, pstride, rows int)

//go:noescape
func residualAVX512(b *block, src, pred *float32, stride, pstride, rows int)

//go:noescape
func reconAVX2(b *block, pred, recon *float32, stride, pstride, rows int)

//go:noescape
func reconAVX512(b *block, pred, recon *float32, stride, pstride, rows int)

//go:noescape
func ycbcrAVX2(rgb, lum, cb, cr *float32, w, n int)

//go:noescape
func ycbcrAVX512(rgb, lum, cb, cr *float32, w, n int)

//go:noescape
func rgbAVX2(rgb, lum, cb, cr *float32, n int)

//go:noescape
func rgbAVX512(rgb, lum, cb, cr *float32, n int)

// ycbcrCells converts the leading whole cells of a row pair w pixels
// wide — rgb and lum hold both rows, cb and cr the pair's chroma row —
// as toYCbCr does, and returns how many it converted: a multiple of
// the tier's eight (AVX-512) or four (AVX2) cells.
func ycbcrCells(rgb, lum, cb, cr []float32, w int) int {
	var n int
	switch cpuTier {
	case tierAVX512:
		n = w / 2 &^ 7
	case tierAVX2:
		n = w / 2 &^ 3
	}
	if n == 0 {
		return 0
	}
	_ = rgb[3*w+6*n-1]
	_ = lum[w+2*n-1]
	_, _ = cb[n-1], cr[n-1]
	if cpuTier == tierAVX512 {
		ycbcrAVX512(&rgb[0], &lum[0], &cb[0], &cr[0], w, n)
	} else {
		ycbcrAVX2(&rgb[0], &lum[0], &cb[0], &cr[0], w, n)
	}
	return n
}

// rgbPixels converts the leading pixels of a row, its luma in lum and
// its chroma row in cb and cr, to interleaved RGB in rgb as fromYCbCr
// does, and returns how many it converted: a multiple of the tier's
// sixteen (AVX-512) or eight (AVX2) lanes.
func rgbPixels(rgb, lum, cb, cr []float32) int {
	var n int
	switch cpuTier {
	case tierAVX512:
		n = len(lum) &^ 15
	case tierAVX2:
		n = len(lum) &^ 7
	}
	if n == 0 {
		return 0
	}
	_ = rgb[3*n-1]
	_, _ = cb[n/2-1], cr[n/2-1]
	if cpuTier == tierAVX512 {
		rgbAVX512(&rgb[0], &lum[0], &cb[0], &cr[0], n)
	} else {
		rgbAVX2(&rgb[0], &lum[0], &cb[0], &cr[0], n)
	}
	return n
}

// colourK holds the colour kernels' constants, as float32, at the byte
// offsets the kernels name: 0.299 (0), 0.587 (4), 0.114 (8), 255 (12),
// 0.564 (16), 0.713 (20), 0.5 (24), 4 (28, a whole cell's pixels) and
// 1 (32).
var colourK = [...]float32{0.299, 0.587, 0.114, 255, 0.564, 0.713, 0.5, 4, 1}

// rgbPerm8 and rgbPerm16 are the VPERMPS indices of the colour kernels
// for eight and sixteen lanes: permutation v of n lanes, lane l, is
// rgbPerm(v, n, l).
var rgbPerm8 [9][8]int32
var rgbPerm16 [9][16]int32

func init() {
	for v := range rgbPerm8 {
		for l := range rgbPerm8[v] {
			rgbPerm8[v][l] = rgbPerm(v, 8, l)
		}
		for l := range rgbPerm16[v] {
			rgbPerm16[v][l] = rgbPerm(v, 16, l)
		}
	}
}

// rgbPerm is lane l of the colour kernels' permutation v on n-lane
// vectors. Once three vectors of n interleaved RGB pixels are blended
// so that every lane holds channel c, pixel p's value is in lane
// (3p+c) mod n: picks 0..2 gather channel c into pixel order, puts 3..5
// scatter it back; 6 and 7 gather a row's even and odd pixels into the
// low half, and 8 gives each pixel its chroma sample, pixel l's being
// l/2.
func rgbPerm(v, n, l int) int32 {
	switch {
	case v < 3:
		return int32((3*l + v) % n)
	case v < 6:
		for p := 0; p < n; p++ {
			if (3*p+v-3)%n == l {
				return int32(p)
			}
		}
	case v < 8:
		return int32((2*l + v - 6) % n)
	}
	return int32(l / 2)
}
