package codec

import (
	"repro/internal/tensor"
	"repro/internal/vision"
)

// plane is a single-channel float32 image with values in [0,255].
type plane struct {
	w, h int
	pix  []float32
}

// planes is one frame in Y'CbCr 4:2:0: full-resolution Y and
// half-resolution (rounded up) Cb and Cr.
type planes [3]plane

func newPlanes(w, h int) planes {
	cw, ch := (w+1)/2, (h+1)/2
	pix := make([]float32, w*h+2*cw*ch)
	return planes{
		{w, h, pix[: w*h : w*h]},
		{cw, ch, pix[w*h : w*h+cw*ch : w*h+cw*ch]},
		{cw, ch, pix[w*h+cw*ch:]},
	}
}

// toYCbCr converts an RGB image ([0,1]) into dst, scaled to [0,255]
// (BT.601). A chroma sample is the mean of the (up to four) pixels of
// its 2×2 cell, summed from +0 in raster order: top-left, top-right,
// bottom-left, bottom-right. Here and in fromYCbCr a product that
// feeds a sum is written float32(x*y) so that no target fuses the two
// (see the exact-order rule in dct.go). The vector tiers convert the
// whole cells of each row pair (ycbcrCells) and this loop the rest.
func toYCbCr(im *vision.Image, dst *planes) {
	y, cb, cr := &dst[0], &dst[1], &dst[2]
	w, cw := im.W, cb.w
	for cy := 0; cy < cb.h; cy++ {
		rows := min(2, im.H-2*cy)
		cbRow := cb.pix[cy*cw : cy*cw+cw]
		crRow := cr.pix[cy*cw : cy*cw+cw]
		cx := 0
		if rows == 2 {
			off := 2 * cy * w
			cx = ycbcrCells(im.Pix[off*3:(off+2*w)*3], y.pix[off:off+2*w], cbRow, crRow, w)
		}
		for ; cx < cw; cx++ {
			cols := min(2, w-2*cx)
			var cbSum, crSum float32
			for dy := 0; dy < rows; dy++ {
				off := (2*cy+dy)*w + 2*cx
				rgb := im.Pix[off*3 : (off+cols)*3]
				lums := y.pix[off : off+cols]
				for i := range lums {
					r, g, b := rgb[3*i], rgb[3*i+1], rgb[3*i+2]
					lum := float32(0.299*r) + float32(0.587*g) + float32(0.114*b)
					lums[i] = lum * 255
					cbSum += float32((float32((b-lum)*0.564) + 0.5) * 255)
					crSum += float32((float32((r-lum)*0.713) + 0.5) * 255)
				}
			}
			n := float32(rows * cols)
			cbRow[cx] = cbSum / n
			crRow[cx] = crSum / n
		}
	}
}

// fromYCbCr reconstructs src as RGB into im, an image of src's
// dimensions, writing every sample (nearest-neighbour chroma
// upsampling). The vector tiers convert the leading pixels of each row
// (rgbPixels) and this loop the rest.
func fromYCbCr(src *planes, im *vision.Image) {
	y, cb, cr := &src[0], &src[1], &src[2]
	for yy := 0; yy < y.h; yy++ {
		lums := y.pix[yy*y.w : yy*y.w+y.w]
		cbRow := cb.pix[(yy/2)*cb.w : (yy/2)*cb.w+cb.w]
		crRow := cr.pix[(yy/2)*cb.w : (yy/2)*cb.w+cb.w]
		rgb := im.Pix[yy*y.w*3 : (yy*y.w+y.w)*3]
		for xx := rgbPixels(rgb, lums, cbRow, crRow); xx < len(lums); xx++ {
			lum := lums[xx] / 255
			cbv := cbRow[xx/2]/255 - 0.5
			crv := crRow[xx/2]/255 - 0.5
			r := lum + crv/0.713
			b := lum + cbv/0.564
			g := (lum - float32(0.299*r) - float32(0.114*b)) / 0.587
			rgb[3*xx], rgb[3*xx+1], rgb[3*xx+2] = tensor.Clamp01(r), tensor.Clamp01(g), tensor.Clamp01(b)
		}
	}
}

// flatRow is the prediction of an intra block, one row of it: every
// row reads the same eight samples (a prediction stride of 0).
var flatRow = [blockSize]float32{128, 128, 128, 128, 128, 128, 128, 128}

// codePlane codes src against the prediction pred (nil for intra: a
// flat 128 plane), writing the reconstruction into recon and returning
// the bits used. Frames whose dimensions are not block multiples are
// padded by clamp-to-edge: the last row and column of residuals repeat
// to fill the ragged blocks, and the padding is not written back.
func codePlane(src, pred, recon *plane, t *stepTable) int64 {
	var bits int64
	var blk block
	w := src.w
	for by := 0; by < src.h; by += blockSize {
		rows := min(blockSize, src.h-by)
		for bx := 0; bx < w; bx += blockSize {
			cols := min(blockSize, w-bx)
			off := by*w + bx
			p, pstride := flatRow[:], 0
			if pred != nil {
				p, pstride = pred.pix[off:], w
			}
			residual(&blk, src.pix[off:], p, w, pstride, rows, cols)
			b, coded := quantizeBlock(&blk, t)
			bits += b
			if !coded {
				// The reconstruction is the prediction: it is already
				// in [0,255] and never −0, so adding +0 and clamping
				// would return it unchanged.
				for y := 0; y < rows; y++ {
					copy(recon.pix[off+y*w:off+y*w+cols], p[y*pstride:y*pstride+cols])
				}
				continue
			}
			reconstruct(&blk, p, recon.pix[off:], w, pstride, rows, cols)
		}
	}
	return bits
}

// residualGo fills b with the residuals of a rows×cols block, the
// source rows stride apart from src[0] and the prediction rows pstride
// apart from pred[0], repeating the last row and column to pad it. It
// is the generic tier of residual.
func residualGo(b *block, src, pred []float32, stride, pstride, rows, cols int) {
	for y := 0; y < rows; y++ {
		s := src[y*stride : y*stride+cols]
		p := pred[y*pstride : y*pstride+cols]
		row := b[y*blockSize : y*blockSize+blockSize]
		for x, v := range s {
			row[x] = float64(v) - float64(p[x])
		}
		for x := cols; x < blockSize; x++ {
			row[x] = row[cols-1]
		}
	}
	for y := rows; y < blockSize; y++ {
		copy(b[y*blockSize:y*blockSize+blockSize], b[(rows-1)*blockSize:])
	}
}

// reconGo writes the reconstruction of a rows×cols block, residuals b
// plus prediction clamped to [0,255], to the rows stride apart from
// recon[0]; the prediction is laid out as in residualGo. It is the
// generic tier of reconstruct.
func reconGo(b *block, pred, recon []float32, stride, pstride, rows, cols int) {
	for y := 0; y < rows; y++ {
		p := pred[y*pstride : y*pstride+cols]
		r := recon[y*stride : y*stride+cols]
		row := b[y*blockSize : y*blockSize+blockSize]
		for x, pv := range p {
			v := row[x] + float64(pv)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			r[x] = float32(v)
		}
	}
}
