package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ReLU is max(0, x). With Cap > 0 it becomes a capped ReLU (ReLU6 when
// Cap = 6, which the paper's localized binary classifier uses before
// its fully-connected layer).
type ReLU struct {
	LayerName string
	Cap       float32 // 0 means uncapped

	lastOut *tensor.Tensor // Backward reads the linear region off it
}

// NewReLU constructs an uncapped ReLU.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// NewReLU6 constructs a ReLU capped at 6.
func NewReLU6(name string) *ReLU { return &ReLU{LayerName: name, Cap: 6} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// MAdds implements Layer (activations are counted as free, matching
// the paper's multiply-add proxy).
func (r *ReLU) MAdds(in []int) int64 { return 0 }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	r.forwardInto(x.Data, out.Data)
	r.lastOut = out
	return out
}

// forwardInto writes the activation of x into out (the two may be the
// same slice): the one loop, run by Forward and by a compiled
// program's stand-alone ReLU op.
func (r *ReLU) forwardInto(x, out []float32) {
	cap := r.Cap
	for i, v := range x {
		switch {
		case v <= 0:
			out[i] = 0
		case cap > 0 && v >= cap:
			out[i] = cap
		default:
			out[i] = v
		}
	}
}

// Backward implements Layer. The gradient passes where the output is
// in the linear region, strictly between 0 and Cap — exactly the inputs
// Forward copied through, NaN aside.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastOut == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", r.LayerName))
	}
	out := tensor.New(grad.Shape...)
	for i, y := range r.lastOut.Data {
		if 0 < y && (r.Cap <= 0 || y < r.Cap) {
			out.Data[i] = grad.Data[i]
		}
	}
	r.lastOut = nil
	return out
}
