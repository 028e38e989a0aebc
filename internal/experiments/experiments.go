// Package experiments regenerates every table and figure of the
// paper's evaluation (§4) on the synthetic substrate. Timings are
// measured at working scale; Figure 7 and the crop ablation also report
// exact paper-scale multiply-add counts. Each experiment prints the same
// rows/series the paper reports and returns structured results for
// tests. The table in cmd/ffbench/main.go maps figures to the
// functions here. Nothing else lives here: subsystems the paper does
// not evaluate are measured by bench/ and proven by their own tests.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/pretrain"
	"repro/internal/tensor"
)

// baseWidthMult is the base DNN's width multiplier at working scale
// (the paper's MobileNet is width 1.0).
const baseWidthMult = 0.25

// Options control the scale of every experiment.
type Options struct {
	// WorkingWidth is the working-scale frame width (the height
	// follows each dataset's native aspect ratio). Default 96.
	WorkingWidth int
	// TrainFrames and TestFrames are the per-split lengths.
	// Defaults 2400 / 2400.
	TrainFrames, TestFrames int
	// Seed drives everything; the test split uses Seed+1 (the paper
	// trains on day one and tests on day two).
	Seed int64
	// Epochs for classifier training (default 4; the effective data
	// budget is further shaped by SampleStride).
	Epochs int
	// SampleStride subsamples training frames (default 2).
	SampleStride int
	// SkipPretrain disables base-DNN pretext pretraining (used by
	// fast benchmarks; accuracy experiments should pretrain).
	SkipPretrain bool
	// PretrainSamples and PretrainEpochs size the pretext task
	// (defaults 512 / 8).
	PretrainSamples, PretrainEpochs int
	// Verbose enables progress logging to the experiment writer.
	Verbose bool
}

func (o *Options) fillDefaults() {
	if o.WorkingWidth <= 0 {
		o.WorkingWidth = 96
	}
	if o.TrainFrames <= 0 {
		o.TrainFrames = 2400
	}
	if o.TestFrames <= 0 {
		o.TestFrames = 2400
	}
	if o.Epochs <= 0 {
		o.Epochs = 4
	}
	if o.SampleStride <= 0 {
		o.SampleStride = 2
	}
	if o.PretrainSamples <= 0 {
		o.PretrainSamples = 512
	}
	if o.PretrainEpochs <= 0 {
		o.PretrainEpochs = 8
	}
}

// datasetPair generates the train (day 1) and test (day 2) splits.
func datasetPair(cfg func(width, frames int, seed int64) dataset.Config, o Options) (train, test *dataset.Dataset) {
	train = dataset.Generate(cfg(o.WorkingWidth, o.TrainFrames, o.Seed))
	test = dataset.Generate(cfg(o.WorkingWidth, o.TestFrames, o.Seed+1))
	return train, test
}

// baseCache memoizes pretrained base models within a process: every
// experiment of a run shares one feature extractor, as a deployment
// would.
var (
	baseCacheMu sync.Mutex
	baseCache   = map[string]*mobilenet.Model{}
)

// newBase builds (and pretrains) the working-scale base DNN. The
// paper uses an ImageNet-trained MobileNet; this reproduction trains
// the same architecture on a synthetic sprite-classification pretext
// task (see internal/pretrain).
func newBase(o Options) *mobilenet.Model {
	key := fmt.Sprintf("%d|%v|%d|%d", o.Seed, o.SkipPretrain, o.PretrainSamples, o.PretrainEpochs)
	baseCacheMu.Lock()
	defer baseCacheMu.Unlock()
	if m, ok := baseCache[key]; ok {
		return m
	}
	m := mobilenet.New(mobilenet.Config{WidthMult: baseWidthMult, BatchNorm: true, Seed: o.Seed + 100})
	if !o.SkipPretrain {
		if _, err := pretrain.Run(m, pretrain.Config{
			Samples: o.PretrainSamples, Epochs: o.PretrainEpochs, Seed: o.Seed + 101,
		}); err != nil {
			panic(fmt.Sprintf("experiments: pretrain: %v", err))
		}
	}
	baseCache[key] = m
	return m
}

// extractStages renders every frame of d and extracts the given
// base-DNN stages, returning per-stage slices of feature maps.
// Extraction parallelizes across frames (the per-frame maps at working
// scale are too small to benefit from intra-frame parallelism).
func extractStages(d *dataset.Dataset, base *mobilenet.Model, stages []string) (map[string][]*tensor.Tensor, error) {
	n := d.Cfg.Frames
	out := make(map[string][]*tensor.Tensor, len(stages))
	for _, s := range stages {
		out[s] = make([]*tensor.Tensor, n)
	}
	oldWorkers := nn.Workers
	nn.Workers = 1
	defer func() { nn.Workers = oldWorkers }()

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				maps, err := base.ExtractMulti(d.FrameTensor(i), stages)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				for s, m := range maps {
					out[s][i] = m
				}
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// workingStages adapts the paper's §3.4 layer-selection heuristic to
// working scale: pick the stage whose spatial reduction keeps the
// task's discriminative detail (the whole person for the Pedestrian
// task, the garment for People-with-red) spanning at least one feature
// cell. The localized architectures take the deepest such stage; the
// full-frame detector prefers one stage deeper (more semantic
// features, matching the paper's penultimate-layer choice) provided
// the deeper grid keeps at least three rows to slide over.
func workingStages(cfg dataset.Config) (detector, localized string) {
	type cand struct {
		stride int
		stage  string
	}
	cands := []cand{{4, "conv2_2/sep"}, {8, "conv3_2/sep"}, {16, "conv4_2/sep"}, {32, "conv5_6/sep"}}
	detail := float64(cfg.PedestrianHeight)
	if cfg.DetailFraction > 0 {
		detail *= cfg.DetailFraction
	}
	localized = cands[0].stage
	locIdx := 0
	for i, c := range cands {
		if detail/float64(c.stride) >= 1.0 {
			localized = c.stage
			locIdx = i
		}
	}
	detector = localized
	if locIdx+1 < len(cands) {
		deeper := cands[locIdx+1]
		if cfg.Height/deeper.stride >= 3 {
			detector = deeper.stage
		}
	}
	return detector, localized
}

// boolsToLabels converts ground truth to float labels.
func labelAt(labels []bool, i int) float32 {
	if labels[i] {
		return 1
	}
	return 0
}

// thresholdGrid is the score grid used to tune decision thresholds on
// the training day.
func thresholdGrid() []float32 {
	var g []float32
	for t := float32(0.05); t < 1.0; t += 0.05 {
		g = append(g, t)
	}
	return g
}

// logf writes progress output when verbose.
func logf(w io.Writer, o Options, format string, args ...any) {
	if o.Verbose && w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
