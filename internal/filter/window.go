package filter

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// windowReduce is the first stage of the windowed, localized binary
// classifier (Fig. 2c): a single 1×1 convolution applied independently
// to each frame of a W-frame window whose input arrives as a
// depthwise concatenation [N, H, W, C·Win]. The convolution weights
// are shared across the window, which is what makes the paper's
// buffering optimization possible: at inference the reduction runs
// once per new frame and its output is reused by every window that
// contains the frame.
//
// windowReduce implements nn.Layer so the whole windowed MC trains as
// one network; the wrapped Conv2D is shared with the MC's streaming
// path.
type windowReduce struct {
	LayerName string
	// Conv is the shared per-frame 1×1 reduction.
	Conv *nn.Conv2D
	// Win is the number of frames in the window.
	Win int

	inC int
}

// newWindowReduce wraps conv (inC -> reduced channels, kernel 1) for a
// win-frame window.
func newWindowReduce(name string, conv *nn.Conv2D, win, inC int) *windowReduce {
	if win <= 0 {
		panic(fmt.Sprintf("filter: bad window %d", win))
	}
	return &windowReduce{LayerName: name, Conv: conv, Win: win, inC: inC}
}

// Name implements nn.Layer.
func (w *windowReduce) Name() string { return w.LayerName }

// Params implements nn.Layer: the shared convolution's parameters.
func (w *windowReduce) Params() []*nn.Param { return w.Conv.Params() }

func (w *windowReduce) splitShape(in []int) (n, h, wd int) {
	if len(in) != 4 || in[3] != w.inC*w.Win {
		panic(fmt.Sprintf("filter: %s expects [N,H,W,%d] input, got %v", w.LayerName, w.inC*w.Win, in))
	}
	return in[0], in[1], in[2]
}

// OutShape implements nn.Layer.
func (w *windowReduce) OutShape(in []int) []int {
	n, h, wd := w.splitShape(in)
	per := w.Conv.OutShape([]int{n, h, wd, w.inC})
	return []int{n, per[1], per[2], per[3] * w.Win}
}

// MAdds implements nn.Layer: the unbuffered (training-time) cost of
// reducing every frame in the window. The buffered inference cost is
// 1/Win of this; the MC accounts for that separately.
func (w *windowReduce) MAdds(in []int) int64 {
	n, h, wd := w.splitShape(in)
	return int64(w.Win) * w.Conv.MAdds([]int{n, h, wd, w.inC})
}

// Forward implements nn.Layer, the training pass: split the window
// channels, stack the frames along the batch dimension, run the shared
// convolution once, and re-assemble.
func (w *windowReduce) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, _, _ := w.splitShape(x.Shape)
	sizes := make([]int, w.Win)
	for i := range sizes {
		sizes[i] = w.inC
	}
	parts := tensor.SplitChannels(x, sizes...)
	stacked := stackBatch(parts)
	out := w.Conv.Forward(stacked)
	outParts := unstackBatch(out, w.Win, n)
	return tensor.ConcatChannels(outParts...)
}

// Backward implements nn.Layer.
func (w *windowReduce) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Shape[0]
	redC := grad.Shape[3] / w.Win
	sizes := make([]int, w.Win)
	for i := range sizes {
		sizes[i] = redC
	}
	parts := tensor.SplitChannels(grad, sizes...)
	stacked := stackBatch(parts)
	gin := w.Conv.Backward(stacked)
	ginParts := unstackBatch(gin, w.Win, n)
	return tensor.ConcatChannels(ginParts...)
}

// stackBatch concatenates same-shaped rank-4 tensors along the batch
// dimension (part-major ordering).
func stackBatch(parts []*tensor.Tensor) *tensor.Tensor {
	p0 := parts[0]
	total := 0
	for _, p := range parts {
		if !p.SameShape(p0) {
			panic("filter: stackBatch shape mismatch")
		}
		total += p.Shape[0]
	}
	out := tensor.New(append([]int{total}, p0.Shape[1:]...)...)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:off+p.Len()], p.Data)
		off += p.Len()
	}
	return out
}

// unstackBatch splits a [win*n, ...] tensor back into win parts of
// batch n (inverse of stackBatch).
func unstackBatch(t *tensor.Tensor, win, n int) []*tensor.Tensor {
	if t.Shape[0] != win*n {
		panic(fmt.Sprintf("filter: unstackBatch batch %d != %d*%d", t.Shape[0], win, n))
	}
	per := t.Len() / win
	parts := make([]*tensor.Tensor, win)
	for i := range parts {
		shape := append([]int{n}, t.Shape[1:]...)
		parts[i] = tensor.FromSlice(append([]float32(nil), t.Data[i*per:(i+1)*per]...), shape...)
	}
	return parts
}
