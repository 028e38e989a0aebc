// Package pretrain gives the base DNN useful features. The paper's
// base DNN is MobileNet trained on ImageNet; no external dataset is
// available offline, so this package trains the base network on a
// synthetic pretext task — classifying which sprite kind (pedestrian,
// red-wearing pedestrian, car, or nothing) appears on a random
// procedural background. The pretext data is generated independently
// of the evaluation datasets (different backgrounds, positions and
// schedules), so this is transfer learning in exactly the paper's
// sense: generic visual features learned offline, reused by every
// microclassifier (§5.1).
package pretrain

import (
	"fmt"
	"io"

	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/vision"
)

// numClasses is the pretext-task label count: background, pedestrian,
// red pedestrian, car.
const numClasses = 4

// Config controls pretraining.
type Config struct {
	// InputSize is the square pretext image size (default 64).
	InputSize int
	// Samples is the pretext dataset size (default 512).
	Samples int
	// Epochs over the pretext set (default 3).
	Epochs int
	// BatchSize (default 16).
	BatchSize int
	// LR is the Adam learning rate (default 0.002).
	LR float32
	// Seed drives pretext generation and training.
	Seed int64
	// Log, if non-nil, receives per-epoch progress.
	Log io.Writer
}

func (c *Config) fillDefaults() {
	if c.InputSize <= 0 {
		c.InputSize = 64
	}
	if c.Samples <= 0 {
		c.Samples = 512
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.LR <= 0 {
		c.LR = 0.002
	}
}

// sample generates one pretext example: a random background with at
// most one sprite, labelled by the sprite kind (0 = none).
func sample(rng *tensor.RNG, size int) (*tensor.Tensor, int) {
	bg := vision.Background(size, size, nil, rng.Int63())
	scene := &vision.Scene{Background: bg, NoiseStd: 0.015}
	class := rng.Intn(numClasses)
	var objs []vision.Object
	if class != 0 {
		h := 6 + rng.Float64()*10
		o := vision.Object{
			W: h / 2.5, H: h,
			X: rng.Float64() * (float64(size) - h),
			Y: float64(size)/3 + rng.Float64()*(float64(size)*2/3-h),
			Body: [3]float32{
				0.05 + 0.25*rng.Float32(),
				0.2 + 0.6*rng.Float32(),
				0.2 + 0.6*rng.Float32(),
			},
			Accent: [3]float32{
				0.75 + 0.25*rng.Float32(),
				0.05 + 0.15*rng.Float32(),
				0.05 + 0.15*rng.Float32(),
			},
		}
		switch class {
		case 1:
			o.Kind = vision.Pedestrian
		case 2:
			o.Kind = vision.PedestrianRed
		case 3:
			o.Kind = vision.Car
			o.W = o.H * 2.4
		}
		objs = append(objs, o)
	}
	frame := scene.Render(objs, 1, rng)
	return frame.ToTensor(), class
}

// Run pretrains the base model in place: it attaches a temporary
// classification head (global average pool + dense), trains the whole
// stack on the pretext task, and discards the head. The base model's
// convolutional weights keep the learned features.
func Run(m *mobilenet.Model, cfg Config) (float64, error) {
	cfg.fillDefaults()
	rng := tensor.NewRNG(cfg.Seed)

	samples := make([]train.ClassSample, cfg.Samples)
	for i := range samples {
		x, class := sample(rng, cfg.InputSize)
		samples[i] = train.ClassSample{X: x, Class: class}
	}

	// Assemble base + temporary head as a single trainable network.
	deepC, err := m.Channels("conv6/sep")
	if err != nil {
		return 0, err
	}
	headRNG := tensor.NewRNG(cfg.Seed + 1)
	full := nn.NewNetwork("pretrain")
	for _, l := range m.Net.Layers() {
		full.Add(l)
	}
	full.Add(nn.NewGlobalAvgPool("pretrain/pool"))
	full.Add(nn.NewDense("pretrain/fc", deepC, numClasses, headRNG))

	progress := func(epoch int, loss float64) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "  pretrain epoch %d loss %.4f\n", epoch, loss)
		}
	}
	return train.FitClasses(full, samples, train.Config{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, Seed: cfg.Seed + 2,
		Optimizer: train.NewAdam(cfg.LR), Progress: progress,
	})
}
