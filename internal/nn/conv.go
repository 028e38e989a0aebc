package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Padding selects the spatial padding policy of a convolution or
// pooling layer.
type Padding int

const (
	// valid performs no padding: output = floor((in-K)/S)+1.
	valid Padding = iota
	// Same zero-pads so that output = ceil(in/S).
	Same
)

func (p Padding) String() string {
	if p == Same {
		return "same"
	}
	return "valid"
}

// outDim returns the output spatial extent and the top/left pad amount.
func outDim(in, k, stride int, pad Padding) (out, padLo int) {
	switch pad {
	case valid:
		if in < k {
			return 0, 0
		}
		return (in-k)/stride + 1, 0
	case Same:
		out = (in + stride - 1) / stride
		total := (out-1)*stride + k - in
		if total < 0 {
			total = 0
		}
		return out, total / 2
	default:
		panic(fmt.Sprintf("nn: unknown padding %d", pad))
	}
}

// Conv2D is a standard 2-D convolution with bias. Weights have shape
// [K, K, inC, outC].
type Conv2D struct {
	LayerName string
	Filters   int
	Kernel    int
	Stride    int
	Pad       Padding

	W *Param // [K,K,inC,outC]
	B *Param // [outC]

	inC   int
	lastX *tensor.Tensor // cached input for backward
}

// NewConv2D constructs a convolution layer and initializes its weights
// with He initialization from rng.
func NewConv2D(name string, inC, filters, kernel, stride int, pad Padding, rng *tensor.RNG) *Conv2D {
	if kernel <= 0 || stride <= 0 || filters <= 0 || inC <= 0 {
		panic(fmt.Sprintf("nn: bad Conv2D params inC=%d filters=%d kernel=%d stride=%d", inC, filters, kernel, stride))
	}
	c := &Conv2D{
		LayerName: name, Filters: filters, Kernel: kernel, Stride: stride, Pad: pad,
		W:   newParam(name+"/weights", kernel, kernel, inC, filters),
		B:   newParam(name+"/bias", filters),
		inC: inC,
	}
	rng.FillHe(c.W.Value, kernel*kernel*inC)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	n, h, w, ic := checkRank4(c.LayerName, in)
	if ic != c.inC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", c.LayerName, c.inC, ic))
	}
	oh, _ := outDim(h, c.Kernel, c.Stride, c.Pad)
	ow, _ := outDim(w, c.Kernel, c.Stride, c.Pad)
	return []int{n, oh, ow, c.Filters}
}

// MAdds implements Layer using the paper's §4.5 formula
// (H/S)·(W/S)·M·K²·F generalized to exact output dims.
func (c *Conv2D) MAdds(in []int) int64 {
	out := c.OutShape(in)
	return int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(c.inC) * int64(c.Kernel*c.Kernel) * int64(c.Filters)
}

// Forward implements Layer. It runs as a GEMM over the input in place
// (see fastpath.go); the historical direct loop survives as the
// reference kernel in reference.go, which the fast path is test-pinned
// against.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	_, _, _, ic := checkRank4(c.LayerName, x.Shape)
	if ic != c.inC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", c.LayerName, c.inC, ic))
	}
	g := c.geom(x.Shape)
	out := tensor.New(g.n, g.oh, g.ow, g.f)
	ep := tensor.Epilogue{Bias: c.B.Value.Data}
	convForward(g, x.Data, c.W.Value.Data, out.Data, ep)
	c.lastX = x
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastX == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", c.LayerName))
	}
	x := c.lastX
	n, h, w, ic := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, padY := outDim(h, c.Kernel, c.Stride, c.Pad)
	ow, padX := outDim(w, c.Kernel, c.Stride, c.Pad)
	k, s, f := c.Kernel, c.Stride, c.Filters

	gin := tensor.New(n, h, w, ic)
	gw, gb := c.W.Grad.Data, c.B.Grad.Data
	wd := c.W.Value.Data

	// Serial over batch/rows: gradient buffers are shared, and training
	// batches here are small relative to inference workloads.
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gsrc := ((b*oh+oy)*ow + ox) * f
				g := grad.Data[gsrc : gsrc+f]
				for co := 0; co < f; co++ {
					gb[co] += g[co]
				}
				iy0 := oy*s - padY
				ix0 := ox*s - padX
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						src := ((b*h+iy)*w + ix) * ic
						wRow := ((ky*k + kx) * ic) * f
						for ci := 0; ci < ic; ci++ {
							xv := x.Data[src+ci]
							wOff := wRow + ci*f
							var gi float32
							for co := 0; co < f; co++ {
								gw[wOff+co] += xv * g[co]
								gi += wd[wOff+co] * g[co]
							}
							gin.Data[src+ci] += gi
						}
					}
				}
			}
		}
	}
	c.lastX = nil
	return gin
}

// DepthwiseConv2D convolves each input channel with its own K×K
// filter (channel multiplier 1), the first half of a separable
// convolution. Weights have shape [K, K, C].
type DepthwiseConv2D struct {
	LayerName string
	Kernel    int
	Stride    int
	Pad       Padding

	W *Param // [K,K,C]
	B *Param // [C]

	channels int
	lastX    *tensor.Tensor
}

// NewDepthwiseConv2D constructs a depthwise convolution over channels
// input channels.
func NewDepthwiseConv2D(name string, channels, kernel, stride int, pad Padding, rng *tensor.RNG) *DepthwiseConv2D {
	if kernel <= 0 || stride <= 0 || channels <= 0 {
		panic(fmt.Sprintf("nn: bad DepthwiseConv2D params channels=%d kernel=%d stride=%d", channels, kernel, stride))
	}
	d := &DepthwiseConv2D{
		LayerName: name, Kernel: kernel, Stride: stride, Pad: pad,
		W:        newParam(name+"/depthwise", kernel, kernel, channels),
		B:        newParam(name+"/bias", channels),
		channels: channels,
	}
	rng.FillHe(d.W.Value, kernel*kernel)
	return d
}

// Name implements Layer.
func (d *DepthwiseConv2D) Name() string { return d.LayerName }

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.W, d.B} }

// OutShape implements Layer.
func (d *DepthwiseConv2D) OutShape(in []int) []int {
	n, h, w, ic := checkRank4(d.LayerName, in)
	if ic != d.channels {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %d", d.LayerName, d.channels, ic))
	}
	oh, _ := outDim(h, d.Kernel, d.Stride, d.Pad)
	ow, _ := outDim(w, d.Kernel, d.Stride, d.Pad)
	return []int{n, oh, ow, ic}
}

// MAdds implements Layer: (H/S)·(W/S)·M·K² — the K² term of the
// paper's separable-convolution formula.
func (d *DepthwiseConv2D) MAdds(in []int) int64 {
	out := d.OutShape(in)
	return int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(d.channels) * int64(d.Kernel*d.Kernel)
}

// Forward implements Layer. It runs on the specialized direct
// depthwise kernel (fastpath.go) with hoisted bounds; the historical
// loop survives as the reference kernel in reference.go.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	_, _, _, ic := checkRank4(d.LayerName, x.Shape)
	if ic != d.channels {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %d", d.LayerName, d.channels, ic))
	}
	g := d.geom(x.Shape)
	out := tensor.New(g.n, g.oh, g.ow, g.ic)
	ep := tensor.Epilogue{Bias: d.B.Value.Data}
	depthwiseForward(g, x.Data, d.W.Value.Data, out.Data, ep)
	d.lastX = x
	return out
}

// Backward implements Layer.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastX == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", d.LayerName))
	}
	x := d.lastX
	n, h, w, ic := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, padY := outDim(h, d.Kernel, d.Stride, d.Pad)
	ow, padX := outDim(w, d.Kernel, d.Stride, d.Pad)
	k, s := d.Kernel, d.Stride

	gin := tensor.New(n, h, w, ic)
	gw, gb := d.W.Grad.Data, d.B.Grad.Data
	wd := d.W.Value.Data

	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gsrc := ((b*oh+oy)*ow + ox) * ic
				g := grad.Data[gsrc : gsrc+ic]
				for ci := 0; ci < ic; ci++ {
					gb[ci] += g[ci]
				}
				iy0 := oy*s - padY
				ix0 := ox*s - padX
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						src := ((b*h+iy)*w + ix) * ic
						wOff := (ky*k + kx) * ic
						for ci := 0; ci < ic; ci++ {
							gw[wOff+ci] += x.Data[src+ci] * g[ci]
							gin.Data[src+ci] += wd[wOff+ci] * g[ci]
						}
					}
				}
			}
		}
	}
	d.lastX = nil
	return gin
}

// SeparableConv2D builds the paper's "SepConv" block: a depthwise K×K
// convolution followed by a pointwise 1×1 convolution, whose combined
// multiply-add count matches the §4.5 separable formula
// (H/S)·(W/S)·M·(K²+F). It returns the two layers so callers can add
// them to a Network with distinct names ("<name>/dw", "<name>/sep" —
// the MobileNet-Caffe naming the paper references).
func SeparableConv2D(name string, inC, filters, kernel, stride int, pad Padding, rng *tensor.RNG) (dw *DepthwiseConv2D, pw *Conv2D) {
	dw = NewDepthwiseConv2D(name+"/dw", inC, kernel, stride, pad, rng)
	pw = NewConv2D(name+"/sep", inC, filters, 1, 1, Same, rng)
	return dw, pw
}
