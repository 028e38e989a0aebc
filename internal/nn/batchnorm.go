package nn

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/tensor"
)

// BatchNorm normalizes each channel of an NHWC tensor to zero mean and
// unit variance over the batch and spatial dims, then applies a learned
// per-channel scale (gamma) and shift (beta). Forward, the training
// pass, normalizes by the batch's own statistics and folds them into
// running statistics (exponential moving averages), which a compiled
// Program normalizes by.
//
// MobileNet v1 places a BatchNorm after every convolution; the builder
// in internal/mobilenet exposes it behind a flag (folded away by
// default, since with He-initialized random weights the activations
// stay well-scaled without it).
type BatchNorm struct {
	LayerName string
	Channels  int
	Momentum  float32 // EMA momentum for running stats, e.g. 0.9
	Eps       float32

	Gamma *Param // [C]
	Beta  *Param // [C]

	// RunningMean and RunningVar are the inference-time statistics.
	// A compiled program caches their fold and refolds after Forward
	// moves them; code that sets them directly must do so before a
	// program over this layer first runs.
	RunningMean *tensor.Tensor // [C]
	RunningVar  *tensor.Tensor // [C]

	stats atomic.Uint64 // running-statistics updates (Forward calls)

	// Backward cache.
	lastXHat *tensor.Tensor
	lastStd  []float32
	lastN    int
}

// NewBatchNorm constructs a batch-normalization layer over channels.
func NewBatchNorm(name string, channels int) *BatchNorm {
	if channels <= 0 {
		panic(fmt.Sprintf("nn: bad BatchNorm channels=%d", channels))
	}
	b := &BatchNorm{
		LayerName: name, Channels: channels, Momentum: 0.9, Eps: 1e-5,
		Gamma:       newParam(name+"/gamma", channels),
		Beta:        newParam(name+"/beta", channels),
		RunningMean: tensor.New(channels),
		RunningVar:  tensor.New(channels),
	}
	b.Gamma.Value.Fill(1)
	b.RunningVar.Fill(1)
	return b
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.LayerName }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// OutShape implements Layer.
func (b *BatchNorm) OutShape(in []int) []int {
	_, _, _, c := checkRank4(b.LayerName, in)
	if c != b.Channels {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %d", b.LayerName, b.Channels, c))
	}
	return append([]int(nil), in...)
}

// MAdds implements Layer: one multiply-add per element (scale+shift;
// normalization folds into it at inference).
func (b *BatchNorm) MAdds(in []int) int64 {
	return int64(tensor.Prod(in))
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, h, w, c := checkRank4(b.LayerName, x.Shape)
	if c != b.Channels {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %d", b.LayerName, b.Channels, c))
	}
	out := tensor.New(x.Shape...)
	gamma, beta := b.Gamma.Value.Data, b.Beta.Value.Data
	count := n * h * w

	mean := make([]float64, c)
	for p := 0; p < count; p++ {
		for ci := 0; ci < c; ci++ {
			mean[ci] += float64(x.Data[p*c+ci])
		}
	}
	for ci := range mean {
		mean[ci] /= float64(count)
	}
	variance := make([]float64, c)
	for p := 0; p < count; p++ {
		for ci := 0; ci < c; ci++ {
			d := float64(x.Data[p*c+ci]) - mean[ci]
			variance[ci] += d * d
		}
	}
	for ci := range variance {
		variance[ci] /= float64(count)
	}

	xhat := tensor.New(x.Shape...)
	std := make([]float32, c)
	for ci := 0; ci < c; ci++ {
		std[ci] = float32(math.Sqrt(variance[ci] + float64(b.Eps)))
	}
	for p := 0; p < count; p++ {
		for ci := 0; ci < c; ci++ {
			off := p*c + ci
			xh := (x.Data[off] - float32(mean[ci])) / std[ci]
			xhat.Data[off] = xh
			out.Data[off] = gamma[ci]*xh + beta[ci]
		}
	}
	for ci := 0; ci < c; ci++ {
		b.RunningMean.Data[ci] = b.Momentum*b.RunningMean.Data[ci] + (1-b.Momentum)*float32(mean[ci])
		b.RunningVar.Data[ci] = b.Momentum*b.RunningVar.Data[ci] + (1-b.Momentum)*float32(variance[ci])
	}
	b.stats.Add(1)
	b.lastXHat, b.lastStd, b.lastN = xhat, std, count
	return out
}

// bnFold writes the inference-time batch-norm fold into scratch (2·C
// floats): scale = gamma/sqrt(var+eps), shift = beta - mean·scale. The
// product is rounded before the subtraction, as on amd64, so that no
// target fuses the two.
func bnFold(bn *BatchNorm, scratch []float32) (scale, shift []float32) {
	c := bn.Channels
	scale, shift = scratch[:c], scratch[c:2*c]
	gamma, beta := bn.Gamma.Value.Data, bn.Beta.Value.Data
	mean, variance := bn.RunningMean.Data, bn.RunningVar.Data
	for i := 0; i < c; i++ {
		s := gamma[i] * float32(1/math.Sqrt(float64(variance[i]+bn.Eps)))
		scale[i] = s
		shift[i] = beta[i] - float32(mean[i]*s)
	}
	return scale, shift
}

// version changes whenever an input of bn's fold does: gamma or beta
// is Touched, or Forward moves the running statistics. Each count only
// grows, so the sum moves when any of them does.
func (b *BatchNorm) version() uint64 {
	return b.Gamma.version.Load() + b.Beta.version.Load() + b.stats.Load()
}

// inferInto writes the inference-mode normalization of x into out,
// out[i] = x[i]·scale[i%C] + shift[i%C] with bn's fold: the loop of a
// compiled program's stand-alone batch-norm op.
func (b *BatchNorm) inferInto(x, out, scale, shift []float32) {
	c := b.Channels
	for px := 0; px+c <= len(x); px += c {
		src, dst := x[px:px+c], out[px:px+c]
		for ci, v := range src {
			dst[ci] = float32(v*scale[ci]) + shift[ci]
		}
	}
}

// Backward implements Layer using the standard batch-norm gradient.
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		panic(fmt.Sprintf("nn: %s Backward without Forward", b.LayerName))
	}
	c := b.Channels
	count := b.lastN
	gamma := b.Gamma.Value.Data
	gGamma, gBeta := b.Gamma.Grad.Data, b.Beta.Grad.Data

	sumG := make([]float64, c)
	sumGX := make([]float64, c)
	for p := 0; p < count; p++ {
		for ci := 0; ci < c; ci++ {
			off := p*c + ci
			g := float64(grad.Data[off])
			sumG[ci] += g
			sumGX[ci] += g * float64(b.lastXHat.Data[off])
		}
	}
	for ci := 0; ci < c; ci++ {
		gGamma[ci] += float32(sumGX[ci])
		gBeta[ci] += float32(sumG[ci])
	}

	gin := tensor.New(b.lastXHat.Shape...)
	for p := 0; p < count; p++ {
		for ci := 0; ci < c; ci++ {
			off := p*c + ci
			g := float64(grad.Data[off])
			xh := float64(b.lastXHat.Data[off])
			gin.Data[off] = float32(float64(gamma[ci]) / float64(b.lastStd[ci]) / float64(count) *
				(float64(count)*g - sumG[ci] - xh*sumGX[ci]))
		}
	}
	b.lastXHat, b.lastStd = nil, nil
	return gin
}
