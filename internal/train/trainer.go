package train

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Sample is one training example: a single-sample tensor (batch dim 1)
// and its binary label.
type Sample struct {
	// X is the input with leading batch dimension 1.
	X *tensor.Tensor
	// Y is the binary label, 0 or 1.
	Y float32
}

// Config controls Fit.
type Config struct {
	// Epochs is the number of passes over the training set. The paper
	// trains MCs and DCs on 0.5 epochs of data; fractional epochs are
	// supported (0 < Epochs allowed to be fractional via EpochFraction).
	Epochs int
	// EpochFraction, if in (0,1], truncates each epoch to that fraction
	// of the (shuffled) training set. The paper's §4.5 uses 0.5.
	EpochFraction float64
	// BatchSize is the mini-batch size (default 16).
	BatchSize int
	// Optimizer updates parameters (default Adam(1e-3)).
	Optimizer Optimizer
	// Seed drives shuffling and class balancing.
	Seed int64
	// BalanceClasses oversamples the minority class to a 1:1 ratio each
	// epoch — important because relevant events are rare (§1), so raw
	// streams are heavily class-imbalanced.
	BalanceClasses bool
	// Progress, if non-nil, is called after every epoch with the mean
	// training loss.
	Progress func(epoch int, loss float64)
}

func (c *Config) fillDefaults() {
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.Optimizer == nil {
		c.Optimizer = NewAdam(1e-3)
	}
	if c.EpochFraction <= 0 || c.EpochFraction > 1 {
		c.EpochFraction = 1
	}
}

// Fit trains net (which must output one logit per sample) on samples
// with binary cross-entropy. It returns the final epoch's mean loss.
func Fit(net *nn.Network, samples []Sample, cfg Config) (float64, error) {
	cfg.fillDefaults()
	if len(samples) == 0 {
		return 0, fmt.Errorf("train: no samples")
	}
	for i, s := range samples {
		if s.X.Shape[0] != 1 {
			return 0, fmt.Errorf("train: sample %d has batch dim %d, want 1", i, s.X.Shape[0])
		}
		if !s.X.SameShape(samples[0].X) {
			return 0, fmt.Errorf("train: sample %d shape %v differs from sample 0 %v", i, s.X.Shape, samples[0].X.Shape)
		}
	}
	rng := tensor.NewRNG(cfg.Seed)
	params := net.Params()
	var lastLoss float64

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := epochOrder(samples, cfg, rng)
		n := int(math.Ceil(float64(len(order)) * cfg.EpochFraction))
		order = order[:n]

		var epochLoss float64
		batches := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			x, y := batchOf(samples, order[start:end])
			logits := net.Forward(x)
			loss, grad := bceWithLogits(logits, y)
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

// epochOrder returns sample indices for one epoch, optionally
// rebalanced so positives and negatives appear equally often.
func epochOrder(samples []Sample, cfg Config, rng *tensor.RNG) []int {
	if !cfg.BalanceClasses {
		return rng.Perm(len(samples))
	}
	var pos, neg []int
	for i, s := range samples {
		if s.Y >= 0.5 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return rng.Perm(len(samples))
	}
	major, minor := neg, pos
	if len(pos) > len(neg) {
		major, minor = pos, neg
	}
	order := make([]int, 0, 2*len(major))
	order = append(order, major...)
	for len(order) < 2*len(major) {
		order = append(order, minor[rng.Intn(len(minor))])
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// batchOf stacks the chosen samples along the batch dimension.
func batchOf(samples []Sample, idx []int) (*tensor.Tensor, []float32) {
	proto := samples[idx[0]].X
	shape := append([]int{len(idx)}, proto.Shape[1:]...)
	x := tensor.New(shape...)
	y := make([]float32, len(idx))
	per := proto.Len()
	for bi, si := range idx {
		copy(x.Data[bi*per:(bi+1)*per], samples[si].X.Data)
		y[bi] = samples[si].Y
	}
	return x, y
}

// Accuracy returns the fraction of samples whose thresholded
// probability matches the label. prob scores one sample, typically a
// classifier's Prob, which runs a compiled program.
func Accuracy(prob func(*tensor.Tensor) float32, samples []Sample, threshold float32) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if (prob(s.X) >= threshold) == (s.Y >= 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
