package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// lossOf runs a forward pass in training mode and returns a scalar
// loss: the weighted sum of outputs against fixed coefficients, which
// gives a well-defined gradient of ones*coeff at the output.
func lossOf(l Layer, x *tensor.Tensor, coeff []float32) float64 {
	out := l.Forward(x)
	var s float64
	for i, v := range out.Data {
		s += float64(v) * float64(coeff[i%len(coeff)])
	}
	return s
}

// checkLayerGradients verifies the analytic input and parameter
// gradients of l against central finite differences.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	coeff := []float32{0.7, -1.3, 0.4, 1.1, -0.5}

	// Analytic gradients.
	out := l.Forward(x.Clone())
	grad := tensor.New(out.Shape...)
	for i := range grad.Data {
		grad.Data[i] = coeff[i%len(coeff)]
	}
	gin := l.Backward(grad)

	// Snapshot analytic parameter gradients before the probing passes
	// below clobber them.
	params := l.Params()
	analytic := make([][]float32, len(params))
	for i, p := range params {
		analytic[i] = append([]float32(nil), p.Grad.Data...)
		p.Grad.Zero()
	}

	// Numeric input gradient.
	const eps = 1e-2
	for i := 0; i < x.Len(); i++ {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := lossOf(l, x.Clone(), coeff)
		// Drain the backward cache so the next Forward can overwrite it.
		drain(l, out.Shape)
		x.Data[i] = orig - eps
		down := lossOf(l, x.Clone(), coeff)
		drain(l, out.Shape)
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if diff := math.Abs(num - float64(gin.Data[i])); diff > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad[%d]: analytic %v, numeric %v", i, gin.Data[i], num)
		}
	}

	// Numeric parameter gradients.
	for pi, p := range params {
		for i := 0; i < p.Value.Len(); i++ {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := lossOf(l, x.Clone(), coeff)
			drain(l, out.Shape)
			p.Value.Data[i] = orig - eps
			down := lossOf(l, x.Clone(), coeff)
			drain(l, out.Shape)
			p.Value.Data[i] = orig
			num := (up - down) / (2 * eps)
			if diff := math.Abs(num - float64(analytic[pi][i])); diff > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s grad[%d]: analytic %v, numeric %v", p.Name, i, analytic[pi][i], num)
			}
		}
	}
}

// drain calls Backward with zero grad to clear layer caches set by the
// probing Forward calls.
func drain(l Layer, outShape []int) {
	l.Backward(tensor.New(outShape...))
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
}

func randInput(shape ...int) *tensor.Tensor {
	g := tensor.NewRNG(11)
	x := tensor.New(shape...)
	g.FillNormal(x, 0, 1)
	return x
}

func TestGradConv2DValid(t *testing.T) {
	g := tensor.NewRNG(1)
	l := NewConv2D("c", 2, 3, 3, 1, valid, g)
	checkLayerGradients(t, l, randInput(2, 4, 5, 2), 2e-2)
}

func TestGradConv2DSameStride2(t *testing.T) {
	g := tensor.NewRNG(2)
	l := NewConv2D("c", 3, 2, 3, 2, Same, g)
	checkLayerGradients(t, l, randInput(1, 5, 5, 3), 2e-2)
}

func TestGradConv2D1x1(t *testing.T) {
	g := tensor.NewRNG(3)
	l := NewConv2D("c", 4, 3, 1, 1, Same, g)
	checkLayerGradients(t, l, randInput(2, 3, 3, 4), 2e-2)
}

func TestGradDepthwiseSame(t *testing.T) {
	g := tensor.NewRNG(4)
	l := NewDepthwiseConv2D("d", 3, 3, 1, Same, g)
	checkLayerGradients(t, l, randInput(1, 4, 4, 3), 2e-2)
}

func TestGradDepthwiseStride2(t *testing.T) {
	g := tensor.NewRNG(5)
	l := NewDepthwiseConv2D("d", 2, 3, 2, Same, g)
	checkLayerGradients(t, l, randInput(2, 5, 5, 2), 2e-2)
}

func TestGradDense(t *testing.T) {
	g := tensor.NewRNG(6)
	l := NewDense("fc", 7, 4, g)
	checkLayerGradients(t, l, randInput(3, 7), 2e-2)
}

func TestGradReLU(t *testing.T) {
	l := NewReLU("r")
	// Keep inputs away from the kink at 0 so finite differences are valid.
	x := randInput(2, 3, 3, 2)
	for i := range x.Data {
		if math.Abs(float64(x.Data[i])) < 0.05 {
			x.Data[i] = 0.5
		}
	}
	checkLayerGradients(t, l, x, 2e-2)
}

func TestGradReLU6(t *testing.T) {
	l := NewReLU6("r6")
	x := randInput(2, 8)
	for i := range x.Data {
		x.Data[i] *= 3
		if math.Abs(float64(x.Data[i])) < 0.05 || math.Abs(float64(x.Data[i])-6) < 0.05 {
			x.Data[i] = 1
		}
	}
	checkLayerGradients(t, l, x, 2e-2)
}

func TestGradMaxPool(t *testing.T) {
	l := NewMaxPool2D("mp", 2, 2, valid)
	// Perturbations must not flip the argmax; spread values apart.
	x := tensor.New(1, 4, 4, 2)
	g := tensor.NewRNG(8)
	for i := range x.Data {
		x.Data[i] = float32(i%13) + 0.3*g.Float32()
	}
	checkLayerGradients(t, l, x, 2e-2)
}

func TestGradGlobalAvgPool(t *testing.T) {
	l := NewGlobalAvgPool("gap")
	checkLayerGradients(t, l, randInput(2, 3, 4, 3), 2e-2)
}

func TestGradGlobalMax(t *testing.T) {
	l := NewGlobalMax("gm")
	x := tensor.New(1, 3, 3, 2)
	for i := range x.Data {
		x.Data[i] = float32(i) * 0.37
	}
	checkLayerGradients(t, l, x, 2e-2)
}

func TestGradFlatten(t *testing.T) {
	l := NewFlatten("fl")
	checkLayerGradients(t, l, randInput(2, 2, 3, 2), 2e-2)
}

func TestGradBatchNorm(t *testing.T) {
	l := NewBatchNorm("bn", 2)
	checkLayerGradients(t, l, randInput(2, 3, 3, 2), 5e-2)
}

// TestGradNetworkComposite checks gradients through a realistic stack:
// sepconv -> relu -> maxpool -> flatten -> dense, the shape of a
// localized binary classifier up to its logit.
func TestGradNetworkComposite(t *testing.T) {
	g := tensor.NewRNG(9)
	dw, pw := SeparableConv2D("s1", 2, 3, 3, 1, Same, g)
	net := NewNetwork("composite").
		Add(dw).Add(pw).
		Add(NewReLU("r1")).
		Add(NewMaxPool2D("mp", 2, 2, valid)).
		Add(NewFlatten("fl")).
		Add(NewDense("fc", 2*2*3, 1, g))

	x := randInput(1, 4, 4, 2)
	out := net.Forward(x.Clone())
	grad := tensor.New(out.Shape...)
	grad.Fill(1)
	gin := net.Backward(grad)

	const eps = 1e-2
	for i := 0; i < x.Len(); i++ {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := net.Forward(x.Clone()).Sum()
		x.Data[i] = orig - eps
		down := net.Forward(x.Clone()).Sum()
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(gin.Data[i])) > 3e-2*(1+math.Abs(num)) {
			t.Fatalf("network input grad[%d]: analytic %v numeric %v", i, gin.Data[i], num)
		}
	}
}
