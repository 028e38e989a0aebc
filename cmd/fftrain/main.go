// Command fftrain performs the application developer's offline step
// (§3.2): it pretrains a base DNN, trains one microclassifier on the
// training day of a synthetic dataset, tunes its decision threshold,
// reports train-day accuracy, and saves the weights for ffrun.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/event"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/mobilenet"
	"repro/internal/pretrain"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, trains and saves
// the MC writing its progress to stdout and errors to stderr, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fftrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName = fs.String("dataset", "roadway", "jackson|roadway")
		archS  = fs.String("arch", "localized", "detector|localized|windowed|pooling")
		width  = fs.Int("width", 96, "working-scale frame width")
		frames = fs.Int("frames", 1200, "training-day frames")
		epochs = fs.Int("epochs", 8, "training epochs")
		seed   = fs.Int64("seed", 1, "seed")
		out    = fs.String("out", "mc.weights", "output weights file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fftrain:", err)
		return 1
	}

	arch, ok := map[string]filter.Arch{
		"detector":  filter.FullFrameObjectDetector,
		"localized": filter.LocalizedBinary,
		"windowed":  filter.WindowedLocalizedBinary,
		"pooling":   filter.PoolingClassifier,
	}[*archS]
	if !ok {
		return fail(fmt.Errorf("unknown arch %q", *archS))
	}
	var cfg dataset.Config
	switch *dsName {
	case "jackson":
		cfg = dataset.Jackson(*width, *frames, *seed)
	case "roadway":
		cfg = dataset.Roadway(*width, *frames, *seed)
	default:
		return fail(fmt.Errorf("unknown dataset %q", *dsName))
	}
	d := dataset.Generate(cfg)

	fmt.Fprintln(stdout, "pretraining base DNN on the sprite pretext task ...")
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: *seed + 100})
	if _, err := pretrain.Run(base, pretrain.Config{Seed: *seed + 101, Log: stdout}); err != nil {
		return fail(err)
	}

	crop := cfg.Region()
	spec := filter.Spec{Name: *dsName + "-" + *archS, Arch: arch, Crop: &crop, Seed: *seed + 1}
	mc, err := filter.NewMC(spec, base, cfg.Width, cfg.Height)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "extracting %s features for %d frames ...\n", mc.Stage(), cfg.Frames)
	fms := make([]*tensor.Tensor, cfg.Frames)
	for i := range fms {
		fm, err := base.Extract(d.FrameTensor(i), mc.Stage())
		if err != nil {
			return fail(err)
		}
		fms[i] = fm
	}
	mean, std := filter.ChannelStats(fms)
	if err := mc.SetNormalization(mean, std); err != nil {
		return fail(err)
	}

	var samples []train.Sample
	for i := range fms {
		y := float32(0)
		if d.Labels[i] {
			y = 1
		}
		samples = append(samples, train.Sample{X: mc.BuildInput(fms, i), Y: y})
	}
	fmt.Fprintf(stdout, "training %s (%v) on %d samples ...\n", spec.Name, arch, len(samples))
	loss, err := train.Fit(mc.Net(), samples, train.Config{
		Epochs: *epochs, BatchSize: 16, Seed: *seed, BalanceClasses: true,
		Optimizer: train.NewAdam(0.003),
		Progress:  func(e int, l float64) { fmt.Fprintf(stdout, "  epoch %d loss %.4f\n", e, l) },
	})
	if err != nil {
		return fail(err)
	}

	// Tune the threshold on the training day.
	scores := make([]float32, len(fms))
	mc.Reset()
	record := func(cs []filter.Classification) {
		for _, c := range cs {
			scores[c.Frame] = c.Prob
		}
	}
	for _, fm := range fms {
		record(mc.Push(fm))
	}
	record(mc.Flush())
	var grid []float32
	for t := float32(0.05); t < 1; t += 0.05 {
		grid = append(grid, t)
	}
	best, th := metrics.BestF1(d.Labels, scores, grid, func(raw []bool) []bool {
		return event.SmoothKofN(raw, event.DefaultN, event.DefaultK)
	})
	fmt.Fprintf(stdout, "final loss %.4f; train-day event F1 %.3f at threshold %.2f\n", loss, best.F1, th)

	if err := mc.SaveFile(*out); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "saved weights to %s (deploy with: ffrun -weights %s -threshold %.2f)\n", *out, *out, th)
	return 0
}
