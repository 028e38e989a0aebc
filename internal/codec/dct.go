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

import "math"

// blockSize is the transform size.
const blockSize = 8

// dctCos holds the DCT-II basis: dctCos[k][n] = c(k)·cos(π(2n+1)k/16).
var dctCos [blockSize][blockSize]float64

func init() {
	for k := 0; k < blockSize; k++ {
		c := math.Sqrt(2.0 / blockSize)
		if k == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for n := 0; n < blockSize; n++ {
			dctCos[k][n] = c * math.Cos(math.Pi*float64(2*n+1)*float64(k)/(2*blockSize))
		}
	}
}

// fdct8x8 computes the forward 2-D DCT of an 8×8 block in place
// (rows then columns).
func fdct8x8(b *[blockSize][blockSize]float64) {
	var tmp [blockSize][blockSize]float64
	// Rows.
	for y := 0; y < blockSize; y++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += b[y][n] * dctCos[k][n]
			}
			tmp[y][k] = s
		}
	}
	// Columns.
	for x := 0; x < blockSize; x++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += tmp[n][x] * dctCos[k][n]
			}
			b[k][x] = s
		}
	}
}

// idct8x8 computes the inverse 2-D DCT of an 8×8 block in place.
func idct8x8(b *[blockSize][blockSize]float64) {
	var tmp [blockSize][blockSize]float64
	// Columns.
	for x := 0; x < blockSize; x++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += b[k][x] * dctCos[k][n]
			}
			tmp[n][x] = s
		}
	}
	// Rows.
	for y := 0; y < blockSize; y++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += tmp[y][k] * dctCos[k][n]
			}
			b[y][n] = s
		}
	}
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

// zigzag is the standard 8×8 zig-zag scan order.
var zigzag = buildZigzag()

func buildZigzag() [blockSize * blockSize][2]int {
	var order [blockSize * blockSize][2]int
	i := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 {
			for y := minInt(s, blockSize-1); y >= 0 && s-y < blockSize; y-- {
				order[i] = [2]int{y, s - y}
				i++
			}
		} else {
			for x := minInt(s, blockSize-1); x >= 0 && s-x < blockSize; x-- {
				order[i] = [2]int{s - x, x}
				i++
			}
		}
	}
	return order
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// quantizeBlock transforms, quantizes, and reconstructs one 8×8 block
// of pixel values in [0,255], returning the coded size in bits. qp
// scales the JPEG matrix: step = max(1, Q·qp/50), so qp 50 is JPEG
// quality ~50 and larger qp is coarser.
func quantizeBlock(b *[blockSize][blockSize]float64, qp float64) (bits int64) {
	fdct8x8(b)
	nonzero := 0
	run := 0
	for _, pos := range zigzag[:] {
		y, x := pos[0], pos[1]
		step := jpegLuma[y][x] * qp / 50
		if step < 1 {
			step = 1
		}
		level := math.Round(b[y][x] / step)
		b[y][x] = level * step
		if level == 0 {
			run++
			continue
		}
		nonzero++
		// Entropy-size model: run-length prefix (~2 bits plus 1 per 4
		// zeros skipped) + magnitude class + sign.
		mag := int64(math.Abs(level))
		bits += 2 + int64(run/4) + int64(bitsOf(mag)) + 1
		run = 0
	}
	if nonzero == 0 {
		bits = 1 // coded-block flag only
	} else {
		bits += 8 // block header
	}
	idct8x8(b)
	return bits
}

// bitsOf returns the number of bits in the binary magnitude of v>=1.
func bitsOf(v int64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
