package nn

import (
	"repro/internal/tensor"
)

// This file keeps the original direct-loop forward kernels of the
// layers the fast path rewrites (Conv2D, DepthwiseConv2D, Dense) as the
// oracle the fast path is tested against, and as readable documentation
// of the math. Nothing outside the tests calls them.
//
// One deliberate change from the historical kernels: the inner loops
// used to skip zero activations (`if xv == 0 { continue }`). That made
// throughput a function of activation sparsity — post-ReLU feature
// maps are roughly half zeros, so the Figure 5/6 numbers depended on
// the data flowing through the network rather than on its
// multiply-add cost. The reference kernels do the full dense work,
// matching the cost model the paper's throughput analysis assumes.

// forwardReference is the naive direct convolution.
func (c *Conv2D) forwardReference(x *tensor.Tensor) *tensor.Tensor {
	n, h, w, ic := checkRank4(c.LayerName, x.Shape)
	oh, padY := outDim(h, c.Kernel, c.Stride, c.Pad)
	ow, padX := outDim(w, c.Kernel, c.Stride, c.Pad)
	out := tensor.New(n, oh, ow, c.Filters)
	wd, bd := c.W.Value.Data, c.B.Value.Data
	k, s, f := c.Kernel, c.Stride, c.Filters

	parFor(n*oh, func(job int) {
		b, oy := job/oh, job%oh
		for ox := 0; ox < ow; ox++ {
			dst := ((b*oh+oy)*ow + ox) * f
			acc := out.Data[dst : dst+f]
			copy(acc, bd)
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
						wv := wd[wOff : wOff+f]
						for co := range acc {
							acc[co] += xv * wv[co]
						}
					}
				}
			}
		}
	})
	return out
}

// forwardReference is the naive direct depthwise convolution.
func (d *DepthwiseConv2D) forwardReference(x *tensor.Tensor) *tensor.Tensor {
	n, h, w, ic := checkRank4(d.LayerName, x.Shape)
	oh, padY := outDim(h, d.Kernel, d.Stride, d.Pad)
	ow, padX := outDim(w, d.Kernel, d.Stride, d.Pad)
	out := tensor.New(n, oh, ow, ic)
	wd, bd := d.W.Value.Data, d.B.Value.Data
	k, s := d.Kernel, d.Stride

	parFor(n*oh, func(job int) {
		b, oy := job/oh, job%oh
		for ox := 0; ox < ow; ox++ {
			dst := ((b*oh+oy)*ow + ox) * ic
			acc := out.Data[dst : dst+ic]
			copy(acc, bd)
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
					xin := x.Data[src : src+ic]
					wv := wd[wOff : wOff+ic]
					for ci := range acc {
						acc[ci] += xin[ci] * wv[ci]
					}
				}
			}
		}
	})
	return out
}

// forwardReference is the naive fully-connected forward.
func (d *Dense) forwardReference(x *tensor.Tensor) *tensor.Tensor {
	n := d.OutShape(x.Shape)[0]
	out := tensor.New(n, d.Out)
	wd, bd := d.W.Value.Data, d.B.Value.Data
	parFor(n, func(b int) {
		acc := out.Data[b*d.Out : (b+1)*d.Out]
		copy(acc, bd)
		row := x.Data[b*d.In : (b+1)*d.In]
		for i, xv := range row {
			wRow := wd[i*d.Out : (i+1)*d.Out]
			for j := range acc {
				acc[j] += xv * wRow[j]
			}
		}
	})
	return out
}
