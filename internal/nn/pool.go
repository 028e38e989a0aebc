package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D takes the spatial maximum over K×K windows.
type MaxPool2D struct {
	LayerName string
	Kernel    int
	Stride    int
	Pad       Padding

	lastArg   []int32 // flat input offset of each output's max
	lastShape []int
}

// NewMaxPool2D constructs a max-pooling layer.
func NewMaxPool2D(name string, kernel, stride int, pad Padding) *MaxPool2D {
	if kernel <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: bad MaxPool2D params kernel=%d stride=%d", kernel, stride))
	}
	return &MaxPool2D{LayerName: name, Kernel: kernel, Stride: stride, Pad: pad}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.LayerName }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) []int {
	n, h, w, c := checkRank4(m.LayerName, in)
	oh, _ := outDim(h, m.Kernel, m.Stride, m.Pad)
	ow, _ := outDim(w, m.Kernel, m.Stride, m.Pad)
	return []int{n, oh, ow, c}
}

// MAdds implements Layer (pooling contributes no multiply-adds).
func (m *MaxPool2D) MAdds(in []int) int64 { return 0 }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(m.OutShape(x.Shape)...)
	m.lastArg, m.lastShape = make([]int32, out.Len()), append([]int(nil), x.Shape...)
	m.forwardInto(x, out, m.lastArg)
	return out
}

// forwardInto writes the window maxima of x into out: the one pooling
// loop, run by Forward and by compiled programs. A non-nil arg also
// receives the flat input offset of each maximum, where Backward routes
// its gradient; programs pass nil.
func (m *MaxPool2D) forwardInto(x, out *tensor.Tensor, arg []int32) {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, padY := outDim(h, m.Kernel, m.Stride, m.Pad)
	ow, padX := outDim(w, m.Kernel, m.Stride, m.Pad)
	k, s := m.Kernel, m.Stride
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := ((b*oh+oy)*ow + ox) * c
				for ci := 0; ci < c; ci++ {
					first := true
					var best float32
					var at int
					for ky := 0; ky < k; ky++ {
						iy := oy*s - padY + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s - padX + kx
							if ix < 0 || ix >= w {
								continue
							}
							off := ((b*h+iy)*w+ix)*c + ci
							if v := x.Data[off]; first || v > best {
								best, at, first = v, off, false
							}
						}
					}
					out.Data[dst+ci] = best
					if arg != nil {
						arg[dst+ci] = int32(at)
					}
				}
			}
		}
	}
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.lastArg == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", m.LayerName))
	}
	gin := tensor.New(m.lastShape...)
	for i, off := range m.lastArg {
		gin.Data[off] += grad.Data[i]
	}
	m.lastArg, m.lastShape = nil, nil
	return gin
}

// GlobalAvgPool reduces [N,H,W,C] to [N,C] by spatial averaging —
// MobileNet's final pooling stage, and the tap the drone-SVM baseline
// (Wang et al. 2018) reads.
type GlobalAvgPool struct {
	LayerName string
	lastShape []int
}

// NewGlobalAvgPool constructs a global average pool.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{LayerName: name} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.LayerName }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// OutShape implements Layer.
func (g *GlobalAvgPool) OutShape(in []int) []int {
	n, _, _, c := checkRank4(g.LayerName, in)
	return []int{n, c}
}

// MAdds implements Layer.
func (g *GlobalAvgPool) MAdds(in []int) int64 { return 0 }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(g.OutShape(x.Shape)...)
	g.forwardInto(x, out)
	g.lastShape = append([]int(nil), x.Shape...)
	return out
}

// forwardInto writes the spatial mean of x into out: the one loop, run
// by Forward and by compiled programs.
func (g *GlobalAvgPool) forwardInto(x, out *tensor.Tensor) {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	inv := 1 / float32(h*w)
	for b := 0; b < n; b++ {
		acc := out.Data[b*c : (b+1)*c]
		clear(acc)
		for p := 0; p < h*w; p++ {
			src := (b*h*w + p) * c
			for ci := 0; ci < c; ci++ {
				acc[ci] += x.Data[src+ci]
			}
		}
		for ci := range acc {
			acc[ci] *= inv
		}
	}
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.lastShape == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", g.LayerName))
	}
	n, h, w, c := g.lastShape[0], g.lastShape[1], g.lastShape[2], g.lastShape[3]
	gin := tensor.New(g.lastShape...)
	inv := 1 / float32(h*w)
	for b := 0; b < n; b++ {
		gr := grad.Data[b*c : (b+1)*c]
		for p := 0; p < h*w; p++ {
			dst := (b*h*w + p) * c
			for ci := 0; ci < c; ci++ {
				gin.Data[dst+ci] = gr[ci] * inv
			}
		}
	}
	g.lastShape = nil
	return gin
}

// GlobalMax reduces [N,H,W,C] to [N,C] by taking the maximum over the
// spatial grid. With C=1 this is the "max over the grid of logits"
// aggregation of the full-frame object detector microclassifier
// (§3.3.1): the frame is positive if any location fires.
type GlobalMax struct {
	LayerName string
	lastArg   []int32
	lastShape []int
}

// NewGlobalMax constructs a global spatial max layer.
func NewGlobalMax(name string) *GlobalMax { return &GlobalMax{LayerName: name} }

// Name implements Layer.
func (g *GlobalMax) Name() string { return g.LayerName }

// Params implements Layer.
func (g *GlobalMax) Params() []*Param { return nil }

// OutShape implements Layer.
func (g *GlobalMax) OutShape(in []int) []int {
	n, _, _, c := checkRank4(g.LayerName, in)
	return []int{n, c}
}

// MAdds implements Layer.
func (g *GlobalMax) MAdds(in []int) int64 { return 0 }

// Forward implements Layer.
func (g *GlobalMax) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(g.OutShape(x.Shape)...)
	g.lastArg, g.lastShape = make([]int32, out.Len()), append([]int(nil), x.Shape...)
	g.forwardInto(x, out, g.lastArg)
	return out
}

// forwardInto writes the spatial maximum of x into out: the one loop,
// run by Forward and by compiled programs. A non-nil arg also receives
// the flat input offset of each maximum, for Backward; programs pass
// nil.
func (g *GlobalMax) forwardInto(x, out *tensor.Tensor, arg []int32) {
	n, hw, c := x.Shape[0], x.Shape[1]*x.Shape[2], x.Shape[3]
	for b := 0; b < n; b++ {
		for ci := 0; ci < c; ci++ {
			at := b*hw*c + ci
			best := x.Data[at]
			for off := at + c; off < (b+1)*hw*c; off += c {
				if v := x.Data[off]; v > best {
					best, at = v, off
				}
			}
			out.Data[b*c+ci] = best
			if arg != nil {
				arg[b*c+ci] = int32(at)
			}
		}
	}
}

// Backward implements Layer.
func (g *GlobalMax) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.lastArg == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", g.LayerName))
	}
	gin := tensor.New(g.lastShape...)
	for i, off := range g.lastArg {
		gin.Data[off] += grad.Data[i]
	}
	g.lastArg, g.lastShape = nil, nil
	return gin
}
