package train

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// softmaxCE computes mean softmax cross-entropy for logits of shape
// [N, C] against integer class labels, returning the loss and
// dLoss/dLogits. Used for pretraining the base DNN on a
// classification pretext task (the stand-in for ImageNet training).
func softmaxCE(logits *tensor.Tensor, classes []int) (float64, *tensor.Tensor) {
	if logits.Rank() != 2 || logits.Shape[0] != len(classes) {
		panic(fmt.Sprintf("train: logits %v vs %d labels", logits.Shape, len(classes)))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	grad := tensor.New(n, c)
	var loss float64
	for b := 0; b < n; b++ {
		row := logits.Data[b*c : (b+1)*c]
		y := classes[b]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("train: class %d out of range [0,%d)", y, c))
		}
		// Log-sum-exp with max subtraction for stability.
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		lse := float64(maxV) + math.Log(sum)
		loss += lse - float64(row[y])
		for j := 0; j < c; j++ {
			p := math.Exp(float64(row[j])-lse) / 1
			g := p
			if j == y {
				g -= 1
			}
			grad.Data[b*c+j] = float32(g / float64(n))
		}
	}
	return loss / float64(n), grad
}

// ClassSample is one multi-class training example.
type ClassSample struct {
	// X is the input with batch dim 1.
	X *tensor.Tensor
	// Class is the integer label.
	Class int
}

// FitClasses trains net (whose output is [N, C] logits) with softmax
// cross-entropy. It reuses Config's optimizer/batching machinery;
// BalanceClasses and EpochFraction are ignored.
func FitClasses(net *nn.Network, samples []ClassSample, cfg Config) (float64, error) {
	cfg.fillDefaults()
	if len(samples) == 0 {
		return 0, fmt.Errorf("train: no samples")
	}
	rng := tensor.NewRNG(cfg.Seed)
	params := net.Params()
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := rng.Perm(len(samples))
		var epochLoss float64
		batches := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			idx := order[start:end]
			proto := samples[idx[0]].X
			shape := append([]int{len(idx)}, proto.Shape[1:]...)
			x := tensor.New(shape...)
			classes := make([]int, len(idx))
			per := proto.Len()
			for bi, si := range idx {
				copy(x.Data[bi*per:(bi+1)*per], samples[si].X.Data)
				classes[bi] = samples[si].Class
			}
			logits := net.Forward(x)
			loss, grad := softmaxCE(logits, classes)
			net.Backward(grad)
			cfg.Optimizer.Step(params)
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Progress != nil {
			cfg.Progress(epoch, lastLoss)
		}
	}
	return lastLoss, nil
}
