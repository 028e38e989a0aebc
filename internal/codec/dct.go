// Package codec is a block-transform video codec that stands in for
// H.264 in this reproduction. It implements the properties Figure 4 of
// the paper depends on:
//
//   - bits-used accounting that responds to scene motion (static
//     backgrounds compress well through temporal prediction, moving
//     objects cost bits),
//   - a rate controller that hits a target bitrate by adjusting the
//     quantization parameter, and
//   - realistic quality degradation: aggressive quantization destroys
//     exactly the small details that the paper argues heavy
//     compression destroys.
//
// The design is classical: 8×8 DCT, JPEG-style quantization scaled by
// a QP, zig-zag + run-length entropy-size model, intra (I) frames and
// predicted (P) frames coded against the previous reconstruction, with
// 4:2:0 chroma subsampling in Y'CbCr space.
package codec

import (
	"math"
	"math/bits"
)

// blockSize is the transform size.
const blockSize = 8

// block is one 8×8 block, row-major.
type block [blockSize * blockSize]float64

// dctCos holds the DCT-II basis, dctCos[k][n] = c(k)·cos(π(2n+1)k/16),
// and dctCosT its transpose.
var dctCos, dctCosT [blockSize][blockSize]float64

func init() {
	for k := 0; k < blockSize; k++ {
		c := math.Sqrt(2.0 / blockSize)
		if k == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for n := 0; n < blockSize; n++ {
			dctCos[k][n] = c * math.Cos(math.Pi*float64(2*n+1)*float64(k)/(2*blockSize))
			dctCosT[n][k] = dctCos[k][n]
		}
	}
}

// The exact-order rule. Every transform output is, by definition,
//
//	s := +0; for i = 0…7 { s += in[i]·cos[·][i] }
//
// with the product rounded before the add. The kernels below keep
// that sum and that order for every output and only change which
// outputs are in flight together: eight at a time, one accumulator
// each, so the adds of one output no longer wait on each other's
// latency. The product is written float64(v*c): the Go spec lets a
// compiler fuse x*y+z into one rounding (arm64, ppc64le, riscv64 and
// s390x do; amd64 does not, GOAMD64=v3 included) and the explicit
// conversion forbids it, so the bits
// do not depend on the target.
//
// A term whose input is ±0 may be skipped: the accumulator starts at
// +0, a sum of floats is −0 only when both addends are −0, so the
// accumulator is never −0, and adding ±0 to anything but −0 returns
// it unchanged.

// fdctRows computes, for each of the eight rows r of src,
// dst[k][r] = Σ_n src[r][n]·cos[k][n] (n ascending): a one-dimensional
// forward pass that writes its output transposed, so that two of them
// make the two-dimensional transform, row pass first.
func fdctRows(dst, src *block) {
	for r := 0; r < blockSize; r++ {
		row := src[r*blockSize : r*blockSize+blockSize]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for n, v := range row {
			c := &dctCosT[n]
			s0 += float64(v * c[0])
			s1 += float64(v * c[1])
			s2 += float64(v * c[2])
			s3 += float64(v * c[3])
			s4 += float64(v * c[4])
			s5 += float64(v * c[5])
			s6 += float64(v * c[6])
			s7 += float64(v * c[7])
		}
		dst[0*blockSize+r] = s0
		dst[1*blockSize+r] = s1
		dst[2*blockSize+r] = s2
		dst[3*blockSize+r] = s3
		dst[4*blockSize+r] = s4
		dst[5*blockSize+r] = s5
		dst[6*blockSize+r] = s6
		dst[7*blockSize+r] = s7
	}
}

// fdctGo computes the forward 2-D DCT of a block in place (rows then
// columns): tmp[k][y] = Σ_n b[y][n]·cos[k][n], then
// b[k][x] = Σ_n tmp[x][n]·cos[k][n]. It is the generic tier of
// fdct8x8.
func fdctGo(b *block) {
	var tmp block
	fdctRows(&tmp, b)
	fdctRows(b, &tmp)
}

// idctGo computes the inverse 2-D DCT of a block in place (columns
// then rows), visiting only the coefficients named in nz: bit k*8+x is
// set for every nonzero b[k][x] (it may be set for zero ones too), and
// whatever the other positions hold is never read. It is the generic
// tier of idct8x8.
func idctGo(b *block, nz uint64) {
	var tmp block
	var cols uint8 // bit x set: column x is visited
	nz = transpose8(nz)
	// Columns: tmp[n][x] = Σ_k b[k][x]·cos[k][n].
	for x := 0; x < blockSize; x++ {
		col := uint8(nz >> (x * blockSize))
		if col == 0 {
			continue
		}
		cols |= 1 << x
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for ; col != 0; col &= col - 1 {
			k := bits.TrailingZeros8(col)
			v := b[k*blockSize+x]
			c := &dctCos[k]
			s0 += float64(v * c[0])
			s1 += float64(v * c[1])
			s2 += float64(v * c[2])
			s3 += float64(v * c[3])
			s4 += float64(v * c[4])
			s5 += float64(v * c[5])
			s6 += float64(v * c[6])
			s7 += float64(v * c[7])
		}
		tmp[0*blockSize+x] = s0
		tmp[1*blockSize+x] = s1
		tmp[2*blockSize+x] = s2
		tmp[3*blockSize+x] = s3
		tmp[4*blockSize+x] = s4
		tmp[5*blockSize+x] = s5
		tmp[6*blockSize+x] = s6
		tmp[7*blockSize+x] = s7
	}
	// Rows: b[y][n] = Σ_k tmp[y][k]·cos[k][n], over the visited
	// columns k of tmp; the others are all zero.
	for y := 0; y < blockSize; y++ {
		row := tmp[y*blockSize : y*blockSize+blockSize]
		out := b[y*blockSize : y*blockSize+blockSize]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for m := cols; m != 0; m &= m - 1 {
			k := bits.TrailingZeros8(m)
			v := row[k]
			c := &dctCos[k]
			s0 += float64(v * c[0])
			s1 += float64(v * c[1])
			s2 += float64(v * c[2])
			s3 += float64(v * c[3])
			s4 += float64(v * c[4])
			s5 += float64(v * c[5])
			s6 += float64(v * c[6])
			s7 += float64(v * c[7])
		}
		out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		out[4], out[5], out[6], out[7] = s4, s5, s6, s7
	}
}

// transpose8 transposes an 8×8 bit matrix held a row a byte: bit
// r*8+c of the result is bit c*8+r of m.
func transpose8(m uint64) uint64 {
	t := (m ^ m>>7) & 0x00aa00aa00aa00aa
	m ^= t ^ t<<7
	t = (m ^ m>>14) & 0x0000cccc0000cccc
	m ^= t ^ t<<14
	t = (m ^ m>>28) & 0x00000000f0f0f0f0
	return m ^ t ^ t<<28
}

// jpegLuma is the standard JPEG luminance quantization matrix, used
// for all planes (chroma is already subsampled).
var jpegLuma = [blockSize][blockSize]float64{
	{16, 11, 10, 16, 24, 40, 51, 61},
	{12, 12, 14, 19, 26, 58, 60, 55},
	{14, 13, 16, 24, 40, 57, 69, 56},
	{14, 17, 22, 29, 51, 87, 80, 62},
	{18, 22, 37, 56, 68, 109, 103, 77},
	{24, 35, 55, 64, 81, 104, 113, 92},
	{49, 64, 78, 87, 103, 121, 120, 101},
	{72, 92, 95, 98, 112, 100, 103, 99},
}

// zigzag is the standard 8×8 zig-zag scan order, as indices into a
// block.
var zigzag = buildZigzag()

func buildZigzag() [blockSize * blockSize]uint8 {
	var order [blockSize * blockSize]uint8
	i := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 {
			for y := min(s, blockSize-1); y >= 0 && s-y < blockSize; y-- {
				order[i] = uint8(y*blockSize + s - y)
				i++
			}
		} else {
			for x := min(s, blockSize-1); x >= 0 && s-x < blockSize; x-- {
				order[i] = uint8((s-x)*blockSize + x)
				i++
			}
		}
	}
	return order
}

// stepTable is the quantizer of one QP, in raster order:
// step = max(1, Q·qp/50), so qp 50 is JPEG quality ~50 and larger qp
// is coarser. half[pos] = step[pos]/2 exactly (a power-of-two scaling
// of a value ≥ 1).
type stepTable struct {
	step, half block
}

// set fills the table for qp.
func (t *stepTable) set(qp float64) {
	for pos := range t.step {
		step := jpegLuma[pos/blockSize][pos%blockSize] * qp / 50
		if step < 1 {
			step = 1
		}
		t.step[pos] = step
		t.half[pos] = step / 2
	}
}

// zigzagOf maps a raster-order bit set to the zig-zag order of the
// same positions: for the eight bits of raster row r held in byte m,
// zigzagOf[r][m] has bit i set for every zig-zag position i whose
// raster position is named.
var zigzagOf = func() (tab [blockSize][256]uint64) {
	for i, pos := range zigzag {
		r, bit := pos/blockSize, uint(pos%blockSize)
		for m := range tab[r] {
			if m>>bit&1 != 0 {
				tab[r][m] |= 1 << i
			}
		}
	}
	return tab
}()

// liveGo returns the raster-order bit set of the nonzero levels of a
// transformed block: bit pos is set when |b[pos]| ≥ half[pos]. It is
// the generic tier of liveMask.
//
// |c| < step/2 ⇔ |c/step| rounds to a float below 0.5 ⇔ the level is
// ±0: step/2 is exact, and the float quotient of anything below it is
// at most the float just below 0.5.
func liveGo(b *block, t *stepTable) uint64 {
	var live uint64
	for pos, v := range b {
		var bit uint64
		if math.Abs(v) >= t.half[pos] {
			bit = 1
		}
		live |= bit << pos
	}
	return live
}

// quantizeBlock transforms, quantizes, and reconstructs one block of
// (finite) residuals in place, returning the coded size in bits. coded
// is false when every level is zero: the reconstructed residual is
// then all +0, and b is left holding the transform, not zeros.
func quantizeBlock(b *block, t *stepTable) (size int64, coded bool) {
	fdct8x8(b)
	// First find the nonzero levels, without a branch per coefficient
	// (which way it would go is close to a coin toss in the middle of
	// the scan).
	nz := liveMask(b, t)
	if nz == 0 {
		return 1, false // coded-block flag only
	}
	size = codeLevels(b, t, nz)
	idct8x8(b, nz)
	return size + 8, true // + block header
}

// codeLevels quantizes and dequantizes the coefficients nz names (a
// liveMask result) and returns their entropy-coded size: per level a
// run-length prefix (~2 bits plus 1 per 4 zeros skipped in zig-zag
// order), its magnitude class and a sign. The zero levels in between
// are never written: nz tells idct8x8 which coefficients to read, and
// nothing reads the sign of a zero (see the exact-order rule).
func codeLevels(b *block, t *stepTable, nz uint64) int64 {
	size := levels(b, t, nz)
	var live uint64
	for r := 0; r < blockSize; r++ {
		live |= zigzagOf[r][uint8(nz>>(r*blockSize))]
	}
	size += 3 * int64(bits.OnesCount64(live))
	next := 0 // zig-zag position after the previous nonzero level
	for ; live != 0; live &= live - 1 {
		i := bits.TrailingZeros64(live)
		size += int64(uint(i-next) / 4)
		next = i + 1
	}
	return size
}

// levelsGo quantizes and dequantizes the coefficients nz names, in
// place, and returns the sum of their magnitude classes (the bit
// lengths of the levels). It is the generic tier of levels.
//
// The level is math.Round(c/step), round half away from zero, computed
// as trunc(|q|+0.5) with q's sign: for 0.5 ≤ |q| < 2^51 the two agree,
// because m−0.5 ≤ |q| < m+0.5 puts |q|+0.5 in [m, m+1) at least one
// float spacing below m+1, so the sum cannot round up to m+1. (Here
// |q| is at most 8·255.)
func levelsGo(b *block, t *stepTable, nz uint64) (classes int64) {
	for ; nz != 0; nz &= nz - 1 {
		pos := bits.TrailingZeros64(nz)
		step := t.step[pos]
		q := b[pos] / step
		mag := int64(math.Abs(q) + 0.5)
		b[pos] = math.Copysign(float64(mag), q) * step
		classes += int64(bits.Len64(uint64(mag)))
	}
	return classes
}
