// Package vision is the synthetic wide-angle camera substrate: a
// procedural scene renderer that stands in for the paper's Jackson
// Hole and Roadway camera feeds. It reproduces the statistical
// structure the paper relies on — a fixed camera, a static background,
// small moving objects, sensor noise, and slow lighting drift — while
// providing exact ground truth by construction.
package vision

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Image is a dense float32 RGB image in HWC layout with values
// nominally in [0,1].
type Image struct {
	// W and H are the pixel dimensions.
	W, H int
	// Pix holds H*W*3 values in row-major HWC order.
	Pix []float32
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("vision: bad image dims %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, w*h*3)}
}

// Clone returns a deep copy. Its pixels are allocated and copied in
// one step, never zeroed first.
func (im *Image) Clone() *Image {
	return &Image{W: im.W, H: im.H, Pix: slices.Clone(im.Pix)}
}

// At returns the RGB value at (x, y).
func (im *Image) At(x, y int) (r, g, b float32) {
	off := (y*im.W + x) * 3
	return im.Pix[off], im.Pix[off+1], im.Pix[off+2]
}

// Set assigns the RGB value at (x, y).
func (im *Image) Set(x, y int, r, g, b float32) {
	off := (y*im.W + x) * 3
	im.Pix[off], im.Pix[off+1], im.Pix[off+2] = r, g, b
}

// fillRect paints an axis-aligned rectangle, clipped to the image.
func (im *Image) fillRect(x0, y0, x1, y1 int, r, g, b float32) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > im.W {
		x1 = im.W
	}
	if y1 > im.H {
		y1 = im.H
	}
	for y := y0; y < y1; y++ {
		off := (y*im.W + x0) * 3
		for x := x0; x < x1; x++ {
			im.Pix[off], im.Pix[off+1], im.Pix[off+2] = r, g, b
			off += 3
		}
	}
}

// fillEllipse paints an axis-aligned ellipse inscribed in the given
// rectangle, clipped to the image.
func (im *Image) fillEllipse(x0, y0, x1, y1 int, r, g, b float32) {
	cx := float64(x0+x1) / 2
	cy := float64(y0+y1) / 2
	rx := float64(x1-x0) / 2
	ry := float64(y1-y0) / 2
	if rx <= 0 || ry <= 0 {
		return
	}
	for y := max(y0, 0); y < min(y1, im.H); y++ {
		for x := max(x0, 0); x < min(x1, im.W); x++ {
			dx := (float64(x) + 0.5 - cx) / rx
			dy := (float64(y) + 0.5 - cy) / ry
			if dx*dx+dy*dy <= 1 {
				im.Set(x, y, r, g, b)
			}
		}
	}
}

// scaleBrightness multiplies all pixels by f, clamping to [0,1]. It
// models slow lighting drift over a recording session.
func (im *Image) scaleBrightness(f float32) {
	for i := range im.Pix {
		im.Pix[i] = tensor.Clamp01(im.Pix[i] * f)
	}
}

// ToTensor converts the image to a [1,H,W,3] tensor (a copy).
func (im *Image) ToTensor() *tensor.Tensor {
	t := tensor.New(1, im.H, im.W, 3)
	copy(t.Data, im.Pix)
	return t
}

// ToTensorInto copies the image into dst when its shape is [1,H,W,3]
// for this image, allocating a fresh tensor otherwise. It is the
// arena-friendly form of ToTensor: a pipeline that processes
// same-sized frames reuses one tensor and ingests frames without
// allocating.
func (im *Image) ToTensorInto(dst *tensor.Tensor) *tensor.Tensor {
	if dst == nil || len(dst.Shape) != 4 ||
		dst.Shape[0] != 1 || dst.Shape[1] != im.H || dst.Shape[2] != im.W || dst.Shape[3] != 3 {
		return im.ToTensor()
	}
	copy(dst.Data, im.Pix)
	return dst
}

// PSNR returns the peak signal-to-noise ratio in dB between two
// same-sized images with peak value 1.0. Identical images return +Inf.
func PSNR(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("vision: PSNR size mismatch")
	}
	var s float64
	for i := range a.Pix {
		d := float64(a.Pix[i] - b.Pix[i])
		s += d * d
	}
	mse := s / float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return -10 * math.Log10(mse)
}
