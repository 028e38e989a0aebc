package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Flatten reshapes [N, ...] to [N, prod(...)]. It has no parameters.
type Flatten struct {
	LayerName string
	lastShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int {
	if len(in) < 2 {
		panic(fmt.Sprintf("nn: %s needs rank>=2 input, got %v", f.LayerName, in))
	}
	return []int{in[0], tensor.Prod(in[1:])}
}

// MAdds implements Layer (flatten is free).
func (f *Flatten) MAdds(in []int) int64 { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.lastShape = append([]int(nil), x.Shape...)
	return x.Reshape(f.OutShape(x.Shape)...)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.lastShape == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", f.LayerName))
	}
	out := grad.Reshape(f.lastShape...)
	f.lastShape = nil
	return out
}

// Dense is a fully-connected layer: y = xW + b, with x of shape
// [N, in] and W of shape [in, out].
type Dense struct {
	LayerName string
	In, Out   int

	W *Param // [in, out]
	B *Param // [out]

	lastX *tensor.Tensor
}

// NewDense constructs a fully-connected layer with He initialization.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: bad Dense dims in=%d out=%d", in, out))
	}
	d := &Dense{
		LayerName: name, In: in, Out: out,
		W: newParam(name+"/weights", in, out),
		B: newParam(name+"/bias", out),
	}
	rng.FillHe(d.W.Value, in)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) []int {
	if len(in) != 2 || in[1] != d.In {
		panic(fmt.Sprintf("nn: %s expects [N,%d] input, got %v", d.LayerName, d.In, in))
	}
	return []int{in[0], d.Out}
}

// MAdds implements Layer using the paper's fully-connected formula
// N_units · H · W · M (here the flattened input is H·W·M).
func (d *Dense) MAdds(in []int) int64 {
	out := d.OutShape(in)
	return int64(out[0]) * int64(d.In) * int64(d.Out)
}

// Forward implements Layer. It runs as a GEMM (fastpath.go); the
// historical per-row loop survives as the reference kernel in
// reference.go.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := d.OutShape(x.Shape)[0]
	out := tensor.New(n, d.Out)
	ep := tensor.Epilogue{Bias: d.B.Value.Data}
	gemmForward(n, d.Out, tensor.Matrix(x.Data, d.In), d.W.Value.Data, out.Data, ep)
	d.lastX = x
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastX == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", d.LayerName))
	}
	x := d.lastX
	n := x.Shape[0]
	gin := tensor.New(n, d.In)
	gw, gb := d.W.Grad.Data, d.B.Grad.Data
	wd := d.W.Value.Data
	for b := 0; b < n; b++ {
		g := grad.Data[b*d.Out : (b+1)*d.Out]
		for j, gv := range g {
			gb[j] += gv
		}
		row := x.Data[b*d.In : (b+1)*d.In]
		girow := gin.Data[b*d.In : (b+1)*d.In]
		for i, xv := range row {
			wRow := wd[i*d.Out : (i+1)*d.Out]
			gwRow := gw[i*d.Out : (i+1)*d.Out]
			var gi float32
			for j, gv := range g {
				gwRow[j] += xv * gv
				gi += wRow[j] * gv
			}
			girow[i] = gi
		}
	}
	d.lastX = nil
	return gin
}
