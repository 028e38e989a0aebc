package codec

import (
	"math"

	"repro/internal/tensor"
	"repro/internal/vision"
)

// The oracle: the codec as it was before the fast path, one scalar
// accumulator per output, clamp-to-edge at/set addressing, fresh
// planes every frame. Nothing here is optimised and nothing here may
// be: the production path is pinned to it with == on bits, QP and
// every reconstructed sample.

func refFdct8x8(b *[blockSize][blockSize]float64) {
	var tmp [blockSize][blockSize]float64
	for y := 0; y < blockSize; y++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += b[y][n] * dctCos[k][n]
			}
			tmp[y][k] = s
		}
	}
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

func refIdct8x8(b *[blockSize][blockSize]float64) {
	var tmp [blockSize][blockSize]float64
	for x := 0; x < blockSize; x++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += b[k][x] * dctCos[k][n]
			}
			tmp[n][x] = s
		}
	}
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

var refZigzag = func() (order [blockSize * blockSize][2]int) {
	i := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 {
			for y := min(s, blockSize-1); y >= 0 && s-y < blockSize; y-- {
				order[i] = [2]int{y, s - y}
				i++
			}
		} else {
			for x := min(s, blockSize-1); x >= 0 && s-x < blockSize; x-- {
				order[i] = [2]int{s - x, x}
				i++
			}
		}
	}
	return order
}()

func refQuantizeBlock(b *[blockSize][blockSize]float64, qp float64) (bits int64) {
	refFdct8x8(b)
	nonzero := 0
	run := 0
	for _, pos := range refZigzag {
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
		mag := int64(math.Abs(level))
		bits += 2 + int64(run/4) + int64(refBitsOf(mag)) + 1
		run = 0
	}
	if nonzero == 0 {
		bits = 1
	} else {
		bits += 8
	}
	refIdct8x8(b)
	return bits
}

func refBitsOf(v int64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

func refPlane(w, h int) *plane {
	return &plane{w: w, h: h, pix: make([]float32, w*h)}
}

func (p *plane) at(x, y int) float32 {
	if x >= p.w {
		x = p.w - 1
	}
	if y >= p.h {
		y = p.h - 1
	}
	return p.pix[y*p.w+x]
}

func (p *plane) set(x, y int, v float32) {
	if x >= p.w || y >= p.h {
		return
	}
	p.pix[y*p.w+x] = v
}

func refToYCbCr(im *vision.Image) (y, cb, cr *plane) {
	y = refPlane(im.W, im.H)
	cw, ch := (im.W+1)/2, (im.H+1)/2
	cb = refPlane(cw, ch)
	cr = refPlane(cw, ch)
	cbSum := make([]float32, cw*ch)
	crSum := make([]float32, cw*ch)
	cnt := make([]float32, cw*ch)
	for yy := 0; yy < im.H; yy++ {
		for xx := 0; xx < im.W; xx++ {
			r, g, b := im.At(xx, yy)
			lum := 0.299*r + 0.587*g + 0.114*b
			y.pix[yy*im.W+xx] = lum * 255
			ci := (yy/2)*cw + xx/2
			cbSum[ci] += ((b-lum)*0.564 + 0.5) * 255
			crSum[ci] += ((r-lum)*0.713 + 0.5) * 255
			cnt[ci]++
		}
	}
	for i := range cbSum {
		if cnt[i] > 0 {
			cb.pix[i] = cbSum[i] / cnt[i]
			cr.pix[i] = crSum[i] / cnt[i]
		}
	}
	return y, cb, cr
}

func refFromYCbCr(y, cb, cr *plane) *vision.Image {
	im := vision.NewImage(y.w, y.h)
	cw := cb.w
	for yy := 0; yy < y.h; yy++ {
		for xx := 0; xx < y.w; xx++ {
			lum := y.pix[yy*y.w+xx] / 255
			ci := (yy/2)*cw + xx/2
			cbv := cb.pix[ci]/255 - 0.5
			crv := cr.pix[ci]/255 - 0.5
			r := lum + crv/0.713
			b := lum + cbv/0.564
			g := (lum - 0.299*r - 0.114*b) / 0.587
			im.Set(xx, yy, tensor.Clamp01(r), tensor.Clamp01(g), tensor.Clamp01(b))
		}
	}
	return im
}

func refCodePlane(src, pred, recon *plane, qp float64) int64 {
	var bits int64
	var blk [blockSize][blockSize]float64
	for by := 0; by < src.h; by += blockSize {
		for bx := 0; bx < src.w; bx += blockSize {
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					v := float64(src.at(bx+x, by+y))
					if pred != nil {
						v -= float64(pred.at(bx+x, by+y))
					} else {
						v -= 128
					}
					blk[y][x] = v
				}
			}
			bits += refQuantizeBlock(&blk, qp)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					v := blk[y][x]
					if pred != nil {
						v += float64(pred.at(bx+x, by+y))
					} else {
						v += 128
					}
					if v < 0 {
						v = 0
					}
					if v > 255 {
						v = 255
					}
					recon.set(bx+x, by+y, float32(v))
				}
			}
		}
	}
	return bits
}

// refEncoder is the old Encoder: one counter is both GOP position and
// frame count, and Reset zeroes it.
type refEncoder struct {
	cfg                   Config
	qp                    float64
	prevY, prevCb, prevCr *plane
	frameIdx              int
}

func newRefEncoder(cfg Config) *refEncoder {
	cfg.fillDefaults()
	return &refEncoder{cfg: cfg, qp: cfg.InitialQP}
}

func (e *refEncoder) encode(im *vision.Image) Frame {
	intra := e.frameIdx%e.cfg.GOP == 0 || e.prevY == nil
	y, cb, cr := refToYCbCr(im)
	ry := refPlane(y.w, y.h)
	rcb := refPlane(cb.w, cb.h)
	rcr := refPlane(cr.w, cr.h)
	var predY, predCb, predCr *plane
	if !intra {
		predY, predCb, predCr = e.prevY, e.prevCb, e.prevCr
	}
	bits := refCodePlane(y, predY, ry, e.qp)
	bits += refCodePlane(cb, predCb, rcb, e.qp)
	bits += refCodePlane(cr, predCr, rcr, e.qp)
	bits += 64
	e.prevY, e.prevCb, e.prevCr = ry, rcb, rcr
	e.frameIdx++
	out := Frame{Bits: bits, Recon: refFromYCbCr(ry, rcb, rcr), Keyframe: intra, QP: e.qp}
	e.qp = nextQP(&e.cfg, e.qp, bits, intra)
	return out
}

func (e *refEncoder) reset() {
	e.prevY, e.prevCb, e.prevCr = nil, nil, nil
	e.frameIdx = 0
}
